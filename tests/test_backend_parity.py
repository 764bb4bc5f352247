"""Backend parity: the vectorized NumPy executor must be observationally
identical to the interpreted one — same results, same superstep count,
and the same message/value accounting — across the whole Table IV suite
(the sweep itself is ``tests/parity.py``, shared with the out-of-core
backend).

The six explicitly spec'd algorithms (CC, BFS, SSSP, PageRank, k-core,
LPA) are additionally held to *full* summary equality (ops and the
reduce/sync and dense/sparse splits included), and must actually take
the vectorized path.
"""

import numpy as np
import pytest

from parity import SuiteParity
from repro import FlashUsageError, random_graph
from repro.__main__ import main
from repro.algorithms import (
    bfs, cc_basic, kcore_basic, kcore_opt, lpa, pagerank, sssp,
)
from repro.core.config import use_config
from repro.core.engine import FlashEngine
from repro.runtime.flashware import FlashwareOptions
from repro.runtime.state import VertexState
from repro.suite import run_app


@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 120, seed=11)


@pytest.fixture(scope="module")
def weighted(graph):
    return graph.with_random_weights(seed=7)


def _pair(fn, *args, **kwargs):
    """Run an algorithm under both backends; return both results."""
    with use_config(backend="interp"):
        a = fn(*args, **kwargs)
    with use_config(backend="vectorized"):
        b = fn(*args, **kwargs)
    return a, b


# ---------------------------------------------------------------------------
# Whole-suite sweep
# ---------------------------------------------------------------------------
class TestSuiteParity(SuiteParity):
    backend = "vectorized"

    def test_auto_alias_removed(self, graph):
        with pytest.raises(FlashUsageError, match="unknown backend 'auto'"):
            run_app("flash", "bfs", graph, num_workers=3, backend="auto")


# ---------------------------------------------------------------------------
# Full-summary equality for the spec'd algorithms
# ---------------------------------------------------------------------------
class TestFullSummaryParity:
    def _check(self, fn, *args, vectorized_supersteps=True, **kwargs):
        a, b = _pair(fn, *args, **kwargs)
        assert b.values == a.values
        assert b.engine.metrics.summary() == a.engine.metrics.summary()
        choices = b.engine.metrics.backend_choices
        assert choices.get("vectorized", 0) > 0
        if vectorized_supersteps:
            assert choices.get("interp", 0) == 0
        return a, b

    def test_cc_basic(self, graph):
        self._check(cc_basic, graph, num_workers=3)

    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    def test_bfs_modes(self, mode, graph):
        self._check(bfs, graph, root=0, num_workers=3, mode=mode)

    def test_sssp(self, weighted):
        self._check(sssp, weighted, root=0, num_workers=3)

    def test_pagerank(self, graph):
        self._check(pagerank, graph, num_workers=3)

    def test_kcore_basic(self, graph):
        self._check(kcore_basic, graph, num_workers=3)

    def test_kcore_opt(self, graph):
        # hist/lower supersteps use variable-length state and fall back.
        self._check(kcore_opt, graph, num_workers=3, vectorized_supersteps=False)

    def test_lpa(self, graph):
        self._check(lpa, graph, num_workers=3)

    def test_parity_with_full_sync(self, graph):
        """The accounting must also match when the critical-property-only
        sync optimization is off (sync covers every changed property)."""
        options = FlashwareOptions(sync_critical_only=False, necessary_mirrors_only=False)
        runs = []
        for backend in ("interp", "vectorized"):
            eng = FlashEngine(graph, num_workers=3, options=options, backend=backend)
            runs.append(bfs(eng))
        a, b = runs
        assert b.values == a.values
        assert b.engine.metrics.summary() == a.engine.metrics.summary()


# ---------------------------------------------------------------------------
# The columnar superstep path does no per-vertex Python work
# ---------------------------------------------------------------------------
class TestColumnarPathStaysColumnar:
    """Guards the structures *between* kernels without timing anything:
    a per-vertex loop reintroduced on this path materialises a set, a
    list or a mirror frozenset, and fails here instead of in a benchmark."""

    @pytest.mark.parametrize(
        "fn, kwargs",
        [(pagerank, {"max_iters": 5}), (bfs, {"root": 0}), (cc_basic, {})],
        ids=["pagerank", "bfs", "cc_basic"],
    )
    def test_no_set_list_or_mirror_set_is_built(self, fn, kwargs, graph):
        oracle = fn(FlashEngine(graph, num_workers=3, backend="interp"), **kwargs)

        engine = FlashEngine(graph, num_workers=3, backend="vectorized")
        returned = []
        superstep = engine._superstep

        def recording(*args, **kw):
            out = superstep(*args, **kw)
            returned.append(out)
            return out

        engine._superstep = recording
        result = fn(engine, **kwargs)

        # (c) same answer, same charges
        assert result.values == oracle.values
        assert engine.metrics.summary() == oracle.engine.metrics.summary()
        # every superstep ran columnar ...
        assert engine.metrics.backend_choices == {"vectorized": len(returned)}
        assert len(returned) > 1
        # (a) ... and handed back an array-born subset that no later
        # kernel (or the algorithm driver) turned into a set or a list
        for subset in returned:
            assert subset._arr is not None and not subset._arr.flags.writeable
            assert subset._ids is None and subset._sorted is None
        # (b) the mirror layout was only ever read as counts or columns,
        # by the interpreted oracle's barrier and the mp commit too
        assert engine.flashware.partition._mirror_sets == {}
        assert oracle.engine.flashware.partition._mirror_sets == {}
        with FlashEngine(graph, num_workers=3, executor="mp") as mp_engine:
            assert fn(mp_engine, **kwargs).values == oracle.values
            assert mp_engine.flashware.partition._mirror_sets == {}


# ---------------------------------------------------------------------------
# The typed column store (every engine's VertexState)
# ---------------------------------------------------------------------------
class TestTypedVertexState:
    def test_dtype_inference(self):
        s = VertexState(4)
        s.add_property("i", 0)
        s.add_property("f", 1.5)
        s.add_property("b", True)
        assert s.array("i").dtype == np.int64
        assert s.array("f").dtype == np.float64
        assert s.array("b").dtype == np.bool_

    def test_get_returns_python_scalars(self):
        s = VertexState(3)
        s.add_property("x", 7)
        assert type(s.get(0, "x")) is int
        s.add_property("y", 2.0)
        assert type(s.get(1, "y")) is float
        s.add_property("z", False)
        assert type(s.get(2, "z")) is bool

    def test_factory_columns_stay_lists(self):
        s = VertexState(3)
        s.add_property("inbox", factory=list)
        assert s.array("inbox") is None
        s.set(1, "inbox", [4, 5])
        assert s.get(1, "inbox") == [4, 5]
        assert s.get(0, "inbox") == []

    def test_demotion_on_unfitting_write(self):
        s = VertexState(3)
        s.add_property("x", 0)
        assert s.array("x") is not None
        s.set(1, "x", "hello")  # no longer int64-typed
        assert s.array("x") is None
        assert s.get(1, "x") == "hello"
        assert s.get(0, "x") == 0

    def test_int_column_accepts_exact_floats(self):
        s = VertexState(2)
        s.add_property("x", 0)
        s.set(0, "x", 3)
        assert s.get(0, "x") == 3
        s.set(1, "x", 2.5)  # fractional → demote
        assert s.array("x") is None
        assert s.get(1, "x") == 2.5

    def test_row_matches_gets(self):
        s = VertexState(2)
        s.add_property("a", 1)
        s.add_property("b", 2.0)
        assert s.row(0) == {"a": 1, "b": 2.0}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    def test_run_backend_flag(self, capsys):
        assert main(["run", "bfs", "OR", "--scale", "0.05",
                     "--workers", "2", "--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "backend: vectorized" in out
        assert "'vectorized'" in out  # backend_choices show vectorized steps

    def test_compare_backend_flag(self, capsys):
        assert main(["compare", "bfs", "OR", "--scale", "0.05",
                     "--workers", "2", "--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "flash[vectorized]" in out
        assert "EDGEMAP mode choices" in out

    def test_backend_defaults_to_interp(self, capsys):
        assert main(["run", "bfs", "OR", "--scale", "0.05"]) == 0
        assert "backend: interp" in capsys.readouterr().out
