"""Static-pass soundness and parity invariants.

Three layers:

* the whole-suite invariant — for every app on every backend the
  ahead-of-time analysis produces the same final values and the same
  :meth:`Metrics.summary` as the runtime sample tracer, **with the
  runtime ``engine.get`` promotion safety net disabled** (the static
  sets must be complete on their own), and the ``check`` mode's trace
  oracle never observes an access the static pass missed;
* a regression test for the sample tracer's inherent branch blindness —
  the miss that motivated the static pass;
* regression tests for the EDGEMAP sampling fix — the old ``(first,
  first)`` self-loop fallback fabricated an edge that does not exist.
"""

import pytest

from repro import FlashEngine, Graph, ctrue, load_dataset
from repro.analysis.staticpass import capture_program
from repro.core.analysis import analyze_edge_map
from repro.core.config import use_config
from repro.core.subset import VertexSubset
from repro.graph.generators import random_graph
from repro.suite import APPS, prepare_graph, run_app

BACKENDS = ("interp", "vectorized")


def _graph_for(app):
    if app == "scc":
        graph = load_dataset("OR", scale=0.05, directed=True)
    else:
        graph = random_graph(24, 64, seed=5)
    return prepare_graph(app, graph)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", APPS)
def test_static_matches_trace_everywhere(app, backend):
    graph = _graph_for(app)
    with use_config(analysis="trace"):
        traced = run_app("flash", app, graph, num_workers=4, backend=backend)
    # Static sets alone (no runtime get-promotion fallback) must
    # reproduce the traced run exactly, without any fallback/spec
    # diagnostics.
    with use_config(analysis="static", remote_promotion=False), capture_program() as cap:
        static = run_app("flash", app, graph, num_workers=4, backend=backend)
    assert static.values == traced.values
    assert static.metrics.summary() == traced.metrics.summary()
    assert cap.diagnostics == []
    # And the trace oracle agrees: under "check" both run, and anything
    # the trace observes that the static pass missed is a diagnostic.
    with use_config(analysis="check"), capture_program() as cap:
        checked = run_app("flash", app, graph, num_workers=4, backend=backend)
    assert checked.values == traced.values
    disagreements = [d for d in cap.diagnostics if "disagreement" in d]
    assert disagreements == []


def test_static_never_syncs_more_than_trace():
    # The acceptance bound on its own: sync messages under the static
    # pass stay at or below the trace baseline for every app.
    for app in APPS:
        graph = _graph_for(app)
        with use_config(analysis="trace"):
            traced = run_app("flash", app, graph, num_workers=4)
        with use_config(analysis="static"):
            static = run_app("flash", app, graph, num_workers=4)
        assert (
            static.metrics.summary()["sync_messages"]
            <= traced.metrics.summary()["sync_messages"]
        ), app


class TestTracerBranchBlindness:
    """The regression that motivated the ahead-of-time pass: a sample
    trace follows one concrete path, so a dense-kernel source read on
    the *other* branch is never classified critical."""

    def _engine(self, analysis):
        eng = FlashEngine(
            Graph.from_edges([(0, 1), (1, 2), (2, 3)]),
            num_workers=2,
            analysis=analysis,
        )
        eng.add_property("sel", True)
        eng.add_property("a", 1)
        eng.add_property("b", 2)
        eng.add_property("x", 0)
        return eng

    @staticmethod
    def _m(s, d):
        if s.sel:
            d.x = s.a
        else:
            d.x = s.b  # never taken on the sample edge: sel is True
        return d

    def test_sample_tracer_misses_else_branch(self):
        eng = self._engine("trace")
        eng.edge_map_dense(eng.V, eng.E, ctrue, self._m)
        critical = eng.flashware.critical_properties
        assert "a" in critical
        assert "b" not in critical  # the documented miss

    def test_static_pass_covers_both_branches(self):
        eng = self._engine("static")
        eng.edge_map_dense(eng.V, eng.E, ctrue, self._m)
        critical = eng.flashware.critical_properties
        assert {"sel", "a", "b"} <= critical
        assert eng.diagnostics == []


class TestEdgeMapSampling:
    """``analyze_edge_map`` must trace a *real* active edge — the old
    fallback fabricated a (first, first) self-loop when the subset's
    first vertex had no out-edges, conflating the source and target
    roles on a single vertex."""

    def _engine(self):
        # Directed: 1 -> 0, so vertex 0 has no out-edges at all.
        eng = FlashEngine(
            Graph.from_edges([(1, 0)], directed=True),
            num_workers=2,
            analysis="trace",
        )
        eng.add_property("x", 0)
        eng.add_property("srcp", 0)
        return eng

    @staticmethod
    def _m(s, d):
        d.x = s.srcp
        return d

    @staticmethod
    def _r(t, d):
        d.x = min(d.x, t.x)
        return d

    def test_no_active_edge_skips_tracing(self):
        eng = self._engine()
        sinks = VertexSubset(eng, [0])
        analyze_edge_map(
            eng, "edge_map_sparse", sinks, eng.E, None, self._m, None, self._r
        )
        # No edge to observe: nothing may be promoted off a fake
        # self-loop (the old fallback marked target accesses here).
        assert "x" not in eng.flashware.critical_properties

    def test_sampling_scans_past_edgeless_vertices(self):
        eng = self._engine()
        both = VertexSubset(eng, [0, 1])  # 0 is edgeless, 1 -> 0 is real
        analyze_edge_map(
            eng, "edge_map_sparse", both, eng.E, None, self._m, None, self._r
        )
        critical = eng.flashware.critical_properties
        assert "x" in critical  # target write on the real edge
        assert "srcp" not in critical  # source read: not critical in sparse
