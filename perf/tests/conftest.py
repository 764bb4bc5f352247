"""Path set-up for the ledger's own tests (``python -m pytest perf/tests -q``;
not part of the tier-1 ``testpaths``)."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session", autouse=True)
def _leave_no_process_behind():
    """Tests that build the mp workload in-process start multiprocessing's
    resource tracker; stop it (and anything else) with the session."""
    yield
    from perf.proc import stop_children

    stop_children()
