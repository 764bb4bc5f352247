"""The paper-fidelity golden file (``benchmarks/paper_golden.txt``).

The sub-second artifacts regenerate here and must equal their committed
cells exactly; every artifact's shape assertions hold on the committed
cells; ``--check`` names a cell that drifted; and EXPERIMENTS.md's tables
are the golden's rendering.  The full regeneration
(``python benchmarks/paper.py --check``) runs in the ``paper-golden``
CI job.
"""

import ast
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

import paper  # noqa: E402
from check_docs import check_golden_tables  # noqa: E402

FAST = [name for name, artifact in paper.ARTIFACTS.items() if artifact.fast]


def golden_lines(name):
    return {k: v for k, v in paper.read_golden().items() if k.split("/", 1)[0] == name}


def test_fast_artifacts():
    assert FAST == ["table1", "fig4b", "fig4cd", "breakdown", "compat",
                    "dense_threshold", "partitioning", "overlap"]


@pytest.mark.parametrize("name", FAST)
def test_fast_artifact_regenerates_exactly(name):
    fresh = paper.lines_of(name, paper.ARTIFACTS[name].compute())
    assert paper.diff(golden_lines(name), fresh) == []


@pytest.mark.parametrize("name", list(paper.ARTIFACTS))
def test_golden_meets_the_paper_shape(name):
    cells = paper.cells_of(paper.read_golden(), name)
    assert cells
    paper.ARTIFACTS[name].check(cells)


def test_check_names_the_cell_that_drifted(tmp_path, capsys, monkeypatch):
    lines = paper.GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("fig4cd/tc_tw/2 "))
    key, _, value = lines[i].partition(" ")
    cell = ast.literal_eval(value)
    cell["sync_values"] += 1
    lines[i] = f"{key} {cell!r}\n"
    edited = tmp_path / "golden.txt"
    edited.write_text("".join(lines), encoding="utf-8")

    assert paper.main(["fig4cd", "--check"]) == 0
    monkeypatch.setattr(paper, "GOLDEN", edited)
    assert paper.main(["fig4cd", "--check"]) == 1
    out = capsys.readouterr().out
    edited_value = cell["sync_values"]
    assert f"fig4cd/tc_tw/2: sync_values {edited_value} -> {edited_value - 1}\n" in out
    assert "1 cell(s) differ" in out


def test_experiments_tables_are_the_golden_rendering(tmp_path):
    assert check_golden_tables() == []
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    drifted = tmp_path / "EXPERIMENTS.md"
    drifted.write_text(text.replace("<!-- paper.py fig4b -->\n```text\n",
                                    "<!-- paper.py fig4b -->\n```text\nedited\n"),
                       encoding="utf-8")
    assert check_golden_tables(drifted) == [
        "EXPERIMENTS.md: table 'fig4b' differs from the golden file "
        "(regenerate with benchmarks/paper.py)"]
