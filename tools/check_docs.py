"""Documentation health checks: link integrity, runnable examples and
the paper tables.

Two checks over ``README.md`` and ``docs/*.md``:

1. **Links** — every relative markdown link must point at a file that
   exists, and every ``#anchor`` fragment at a heading that exists in
   the target (GitHub slug rules: lowercase, punctuation stripped,
   spaces to hyphens).
2. **Doctests** — every ``>>>`` example inside the files runs under
   ``doctest`` (the same extraction ``python -m doctest file`` uses),
   so the snippets in the docs cannot drift from the code.

And one over ``EXPERIMENTS.md``: every paper artifact has a table
between ``<!-- paper.py NAME -->`` markers, equal to its rendering of
the golden file ``benchmarks/paper_golden.txt``.

Run directly (exits non-zero on any failure)::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation set under check.
def doc_files(root: Path = REPO_ROOT) -> List[Path]:
    return [root / "README.md"] + sorted((root / "docs").glob("*.md"))


# -- links ------------------------------------------------------------------
#: ``[text](target)`` — excluding images and in-code brackets is handled
#: by stripping fenced blocks first.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop everything but word
    characters, spaces and hyphens, then spaces to hyphens."""
    heading = re.sub(r"[`*_]", "", heading.strip()).lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def _anchors(path: Path) -> set:
    text = _FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return {_slugify(m.group(1)) for m in _HEADING_RE.finditer(text)}


def check_links(files: List[Path]) -> List[str]:
    """Return one error string per broken relative link/anchor."""
    errors = []
    for doc in files:
        text = _FENCE_RE.sub("", doc.read_text(encoding="utf-8"))
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = target.partition("#")
            resolved = (doc.parent / target).resolve() if target else doc
            if not resolved.exists():
                errors.append(f"{doc.name}: broken link -> {target}")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in _anchors(resolved):
                    errors.append(
                        f"{doc.name}: broken anchor -> {target or doc.name}#{fragment}"
                    )
    return errors


# -- doctests ---------------------------------------------------------------
def check_doctests(files: List[Path]) -> List[str]:
    """Run every ``>>>`` example in the given files; return one error
    string per failing file."""
    errors = []
    for doc in files:
        failures, _tried = doctest.testfile(
            str(doc), module_relative=False, verbose=False,
            optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        )
        if failures:
            errors.append(f"{doc.name}: {failures} doctest failure(s)")
    return errors


# -- paper tables -------------------------------------------------------------
def check_golden_tables(path: Path = REPO_ROOT / "EXPERIMENTS.md") -> List[str]:
    """Return one error string per paper table of ``path`` that is
    missing or differs from its rendering of the golden file."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import paper

    text = path.read_text(encoding="utf-8")
    ours = {m.group(2): m.group(0) for m in paper.BLOCK.finditer(text)}
    golden = {m.group(2): m.group(0)
              for m in paper.BLOCK.finditer(paper.render_docs(text, paper.read_golden()))}
    return [f"{path.name}: table {name!r} "
            + ("missing" if name not in ours else "differs from the golden file")
            + " (regenerate with benchmarks/paper.py)"
            for name in paper.ARTIFACTS if ours.get(name) != golden.get(name, "")]


def main() -> int:
    files = doc_files()
    missing = [f.name for f in files if not f.exists()]
    if missing:
        print(f"missing doc files: {missing}", file=sys.stderr)
        return 1
    errors = check_links(files) + check_doctests(files) + check_golden_tables()
    for error in errors:
        print(error, file=sys.stderr)
    tried = sum(
        len(doctest.DocTestParser().get_examples(f.read_text(encoding="utf-8")))
        for f in files
    )
    print(f"checked {len(files)} files: links ok, {tried} doctest example(s), "
          "paper tables ok"
          if not errors else f"{len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
