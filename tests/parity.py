"""The whole-suite backend sweep shared by the parity test modules.

One test body, one ``backend`` parameter: every columnar backend is held
to the interpreted oracle on all 14 Table IV applications — same values,
same superstep count, same charged metrics (``Metrics.summary()``
key-for-key).  The only allowed difference is the two I/O counters
(``blocks_read`` / ``bytes_read``) that the out-of-core block scheduler
charges and the in-memory backends never do.

``tests/test_backend_parity.py`` and ``tests/test_oocore_parity.py``
each bind :class:`SuiteParity` to their backend.
"""

import pytest

from repro import load_dataset, random_graph
from repro.core.config import use_config
from repro.suite import APPS, DIRECTED_APPS, prepare_graph, run_app

#: Apps whose FLASH variants carry hand-written specs, so at least one
#: superstep must dispatch the columnar kernels.
SPECCED_APPS = {"cc", "bfs", "kc", "bcc", "lpa"}


def strip_io(summary):
    io = (summary.pop("blocks_read"), summary.pop("bytes_read"))
    return summary, io


class SuiteParity:
    """Subclass as ``TestSuiteParity`` with ``backend`` set."""

    backend: str

    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph(40, 120, seed=11)

    @pytest.mark.parametrize("app", APPS)
    def test_app_parity(self, app, graph):
        g = graph
        if app in DIRECTED_APPS:
            g = load_dataset("OR", scale=0.05, directed=True)
        g = prepare_graph(app, g)
        interp = run_app("flash", app, g, num_workers=3, backend="interp")
        with use_config(oocore_interval=8):
            run = run_app("flash", app, g, num_workers=3, backend=self.backend)
        assert run.values == interp.values, app
        assert run.metrics.num_supersteps == interp.metrics.num_supersteps, app
        assert run.metrics.total_messages == interp.metrics.total_messages, app
        assert run.metrics.total_values == interp.metrics.total_values, app
        interp_summary, interp_io = strip_io(interp.metrics.summary())
        run_summary, run_io = strip_io(run.metrics.summary())
        assert run_summary == interp_summary, app
        assert interp_io == (0, 0), app  # in-memory backends never touch disk
        if app in SPECCED_APPS:
            assert run.metrics.backend_choices.get(self.backend, 0) > 0, app
        if self.backend == "oocore":
            if app in SPECCED_APPS:
                assert run_io[0] > 0 and run_io[1] > 0, app
        else:
            assert run_io == (0, 0), app
