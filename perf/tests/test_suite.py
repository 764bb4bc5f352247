"""The contract between BENCHMARK.json and what the command emits."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perf.harness import END_TO_END
from perf.layers import PER_LAYER
from perf.workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perf"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == \
        {name: cls.why for name, cls in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER
    assert set(SIZES) == set(WORKLOADS)


def test_designed_tail_percentiles_follow_the_rule():
    from perf.stats import percentile_supported

    designed_ops = {"serve-solo": 1500, "serve-burst": 200}
    for name, cls in WORKLOADS.items():
        assert percentile_supported(designed_ops.get(name, 10), cls.tail_pct), name


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "ledger.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout, elapsed


def test_smoke_emits_every_workload_and_metric(smoke_ledger):
    ledger, stdout, _elapsed = smoke_ledger
    for w in BENCH["workloads"]:
        e2e = ledger["end_to_end"][w["name"]]
        layer = ledger["per_layer"][w["name"]]
        assert e2e["failed"] == 0 and layer["failed"] == 0
        assert e2e["fail_share"] == 0
        if not e2e["oversubscribed"]:
            assert set(e2e["metrics"]) == set(END_TO_END), w["name"]
        assert set(layer["metrics"]) == set(PER_LAYER), w["name"]
        for name, unit in PER_LAYER.items():
            assert layer["metrics"][name]["unit"] == unit
    for name in list(END_TO_END) + list(PER_LAYER):
        assert name in stdout
    assert set(ledger["host"]) >= {"cpu_count", "load_1min_at_start", "python",
                                   "numpy", "git_sha", "seeds"}


def test_smoke_finishes_within_a_minute(smoke_ledger):
    assert smoke_ledger[2] < 60


def test_nothing_is_left_behind(smoke_ledger):
    work = ROOT / "perf" / ".work"
    assert not work.exists() or not any(work.iterdir())


def _session_members(sid: int):
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # session id
            members.append((int(entry.name), fields[0]))
    return members


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_an_mp_run(trace):
    """The mp workers *and* multiprocessing's resource tracker (which
    outlives its parent by design) are gone -- not running, not zombies --
    the moment the command returns."""
    child = subprocess.Popen(
        BENCH["command"] + ["--workload", "mp-dense", "--seed", "1", "--seconds", "0.5",
                            "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = child.communicate(timeout=180)
    assert child.returncode == 0, out + err
    assert _session_members(child.pid) == []


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is no
    program to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "vec-dense", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
