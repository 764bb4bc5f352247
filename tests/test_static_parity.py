"""Static-pass soundness and parity invariants.

Three layers:

* the whole-suite invariant — for every app on every backend a program
  capture (under which the sample trace cross-checks every kernel and
  each runtime ``engine.get`` promotion is reported) has zero
  diagnostics: no static/trace disagreement and no promotion, so the
  static sets are complete on their own; and the run equals one where
  the sample trace decides every kernel (the static pass made to fail,
  so its safety fallback takes over);
* a regression test for the sample tracer's inherent branch blindness —
  the miss that motivated the static pass;
* regression tests for the EDGEMAP sampling fix — the old ``(first,
  first)`` self-loop fallback fabricated an edge that does not exist.
"""

import dataclasses

import pytest

import repro.analysis.staticpass as staticpass
from repro import FlashEngine, Graph, ctrue, load_dataset
from repro.analysis.staticpass import capture_program, lint_capture
from repro.core.analysis import trace_edge_map
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


def _trace_only(monkeypatch):
    """Make the static pass fail on every kernel: the engine's safety
    fallback then lets the sample trace decide each one."""

    def analyzer_down(*_args, **_kwargs):
        raise RuntimeError("static pass disabled")

    monkeypatch.setattr(staticpass, "analyze_kernel", analyzer_down)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", APPS)
def test_static_matches_trace_everywhere(monkeypatch, app, backend):
    graph = _graph_for(app)
    with capture_program() as cap:
        static = run_app("flash", app, graph, num_workers=4, backend=backend)
    assert cap.diagnostics == []
    with monkeypatch.context() as m:
        _trace_only(m)
        traced = run_app("flash", app, graph, num_workers=4, backend=backend)
    assert static.values == traced.values
    if backend == "interp":  # vectorized: synthesis needs the static pass
        assert static.metrics.summary() == traced.metrics.summary()


def test_static_never_syncs_more_than_trace(monkeypatch):
    # The acceptance bound on its own: sync messages under the static
    # pass stay at or below the trace baseline for every app.
    for app in APPS:
        graph = _graph_for(app)
        static = run_app("flash", app, graph, num_workers=4)
        with monkeypatch.context() as m:
            _trace_only(m)
            traced = run_app("flash", app, graph, num_workers=4)
        assert (
            static.metrics.summary()["sync_messages"]
            <= traced.metrics.summary()["sync_messages"]
        ), app


def test_a_missed_get_read_is_reported_as_a_runtime_promotion(monkeypatch):
    """A static verdict that drops a property read through ``engine.get``
    leaves the promotion net to mark it at runtime — and a capture
    reports the promotion."""
    real = staticpass.analyze_kernel

    def drops_far(kind, **fns):
        res = real(kind, **fns)
        return dataclasses.replace(res, critical=res.critical - {"far"})

    monkeypatch.setattr(staticpass, "analyze_kernel", drops_far)
    eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2)]), num_workers=2)
    eng.add_property("far", 5)
    eng.add_property("x", 0)

    def peek(v):
        v.x = eng.get(2).far
        return v

    with capture_program() as cap:
        eng.vertex_map(eng.V, ctrue, peek, label="peek")
    assert eng.flashware.is_critical("far")
    promotion = (
        "runtime promotion: engine.get read 'far' inside vertex_map:peek, "
        "which no static verdict had marked critical"
    )
    assert [d for d in cap.diagnostics if d.startswith("runtime promotion")] == [promotion]
    assert [(f.rule, f.message) for f in lint_capture(cap)] == [
        ("static-trace-disagreement", promotion)
    ]


class TestTracerBranchBlindness:
    """The regression that motivated the ahead-of-time pass: a sample
    trace follows one concrete path, so a dense-kernel source read on
    the *other* branch is never classified critical."""

    def _engine(self):
        eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2), (2, 3)]), num_workers=2)
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
        eng = self._engine()
        critical, _seen = trace_edge_map(
            eng, "edge_map_dense", eng.V, eng.E, ctrue, self._m, None, None
        )
        assert "a" in critical
        assert "b" not in critical  # the documented miss

    def test_static_pass_covers_both_branches(self):
        eng = self._engine()
        eng.edge_map_dense(eng.V, eng.E, ctrue, self._m)
        critical = eng.flashware.critical_properties
        assert {"sel", "a", "b"} <= critical
        assert eng.diagnostics == []


class TestEdgeMapSampling:
    """The sample trace must run on a *real* active edge — the old
    fallback fabricated a (first, first) self-loop when the subset's
    first vertex had no out-edges, conflating the source and target
    roles on a single vertex."""

    def _engine(self):
        # Directed: 1 -> 0, so vertex 0 has no out-edges at all.
        eng = FlashEngine(Graph.from_edges([(1, 0)], directed=True), num_workers=2)
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
        traced = trace_edge_map(
            eng, "edge_map_sparse", sinks, eng.E, None, self._m, None, self._r
        )
        # No edge to observe: nothing may be promoted off a fake
        # self-loop (the old fallback marked target accesses here).
        assert traced is None
        assert "x" not in eng.flashware.critical_properties

    def test_sampling_scans_past_edgeless_vertices(self):
        eng = self._engine()
        both = VertexSubset(eng, [0, 1])  # 0 is edgeless, 1 -> 0 is real
        trace_edge_map(
            eng, "edge_map_sparse", both, eng.E, None, self._m, None, self._r
        )
        critical = eng.flashware.critical_properties
        assert "x" in critical  # target write on the real edge
        assert "srcp" not in critical  # source read: not critical in sparse
