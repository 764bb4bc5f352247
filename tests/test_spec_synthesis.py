"""Spec synthesis (the kernel compiler every engine runs): fuzzed interp parity, synthesizer
unit behavior, synthesis-first dispatch, communication planning and the plan artifact."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import pagerank, sssp
from repro.analysis.compile import (
    build_plan,
    explain_edge,
    explain_vertex,
    render_plan,
    synthesize_edge_spec,
    synthesize_vertex_spec,
)
from repro.analysis.compile import synthesize
from repro.analysis.compile.commplan import CommunicationPlan
from repro.analysis.compile.exprs import Compare, Const, Prop, compile_vertex
from repro.analysis.compile.plan import capture_plan
from repro.core.config import use_config
from repro.core.engine import FlashEngine
from repro.core.primitives import bind, ctrue
from repro.graph.generators import random_graph
from repro.runtime.vectorized.specs import NOT_SET, EdgeMapSpec
from repro.suite import APPS, prepare_graph, run_app

INF = float("inf")

#: Apps the compiler newly moves onto the vectorized backend (no
#: hand-written specs for the synthesized kernels before this PR).
NEWLY_COVERED = ("mis", "bc", "mm", "gc", "bcc")

#: Charged per-superstep quantities that must be bit-identical between
#: the interpreted and the compiled run.
_FIELDS = (
    "index", "kind", "label", "worker_ops",
    "reduce_messages", "reduce_values",
    "sync_messages", "sync_values",
    "frontier_in", "frontier_out",
)


def _signatures(metrics):
    out = []
    for rec in metrics.records:
        sig = []
        for name in _FIELDS:
            value = getattr(rec, name)
            sig.append(tuple(value) if isinstance(value, list) else value)
        out.append(tuple(sig))
    return out


def _run_pair(app, graph, **kwargs):
    interp = run_app("flash", app, prepare_graph(app, graph),
                     backend="interp", **kwargs)
    compiled = run_app("flash", app, prepare_graph(app, graph),
                       backend="vectorized", **kwargs)
    return interp, compiled


class TestFuzzedParity:
    """Synthesized kernels must be bit-identical to the interpreter —
    values AND charged metrics — on randomized generator graphs."""

    @pytest.mark.parametrize("app", NEWLY_COVERED)
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_values_and_metrics_identical(self, app, seed):
        graph = random_graph(26, 70, seed=seed)
        interp, compiled = _run_pair(app, graph, num_workers=4)
        assert interp.values == compiled.values
        assert _signatures(interp.metrics) == _signatures(compiled.metrics)

    @pytest.mark.parametrize("app", NEWLY_COVERED)
    def test_newly_covered_apps_dispatch_vectorized(self, app):
        graph = random_graph(26, 70, seed=3)
        _, compiled = _run_pair(app, graph, num_workers=4)
        assert compiled.metrics.backend_choices.get("vectorized", 0) > 0, (
            f"{app} should run vectorized supersteps via synthesized specs"
        )

    @pytest.mark.parametrize("app", ["bfs", "cc", "kc", "lpa"])
    def test_hand_spec_apps_unchanged_under_compile(self, app):
        # Apps that keep hand specs for the kernels synthesis refuses
        # mix both origins and stay bit-identical.
        graph = random_graph(26, 70, seed=7)
        interp, compiled = _run_pair(app, graph, num_workers=4)
        assert interp.values == compiled.values
        assert _signatures(interp.metrics) == _signatures(compiled.metrics)

    def test_worker_count_fuzz(self):
        graph = random_graph(30, 90, seed=13)
        for workers in (2, 3, 5):
            interp, compiled = _run_pair("mis", graph, num_workers=workers)
            assert interp.values == compiled.values
            assert _signatures(interp.metrics) == _signatures(compiled.metrics)


# ---------------------------------------------------------------------------
# Synthesizer unit behavior (functions must live in a real file for the
# AST recovery to work — that is why these are module-level-style defs).
# ---------------------------------------------------------------------------
class TestSynthesizeVertex:
    def test_simple_map(self):
        def m(v):
            v.x = v.y + 1
            return v

        spec = synthesize_vertex_spec(None, m)
        assert spec is not None
        assert set(spec.declared_access()["writes"]) == {"x"}

    def test_filter_only(self):
        def f(v):
            return v.x == 0

        spec = synthesize_vertex_spec(f, None)
        assert spec is not None and spec.map is None

    def test_refuses_loops(self):
        def m(v):
            for _ in range(3):
                v.x = v.x + 1
            return v

        spec, reason = explain_vertex(None, m)
        assert spec is None and reason

    def test_where_merge_of_if_branches(self):
        def m(v):
            if v.x > 0:
                v.y = 1
            else:
                v.y = 2
            return v

        assert synthesize_vertex_spec(None, m) is not None

    def test_refuses_unbalanced_branch_writes(self):
        def m(v):
            if v.x > 0:
                v.y = 1
            return v

        spec, reason = explain_vertex(None, m)
        assert spec is None and reason


class TestSynthesizeEdge:
    def test_bfs_shape_sparse(self):
        def update(s, d):
            d.dis = s.dis + 1
            return d

        def cond(v):
            return v.dis == -1

        def reduce(t, d):
            return t

        spec = synthesize_edge_spec("edge_map_sparse", None, update, cond, reduce)
        assert spec is not None
        assert spec.prop == "dis"
        assert spec.reduce == "last"
        # push reads C against the committed snapshot, so the sentinel
        # mask applies although ``s.dis + 1`` may equal -1
        assert spec.cond is None and spec.cond_unvisited == -1

    def test_bfs_shape_dense_refused_without_sentinel_proof(self):
        # Dense scans observe mid-scan state: C reads the written prop,
        # and ``s.dis + 1`` is not provably != -1, so the write-once
        # pattern cannot be certified — the compiler must refuse rather
        # than risk divergence from the interpreter.
        def update(s, d):
            d.dis = s.dis + 1
            return d

        def cond(v):
            return v.dis == -1

        spec, reason = explain_edge("edge_map_dense", None, update, cond, None)
        assert spec is None and reason

    def test_negative_sentinel_constant_folds(self):
        # ``v.s == -1`` lowers through a USub node; the folder must see
        # Const(-1) or the write-once pattern is missed.
        def m(s, d):
            d.s = s.id
            return d

        def c(v):
            return v.s == -1

        def r(t, d):
            return t

        spec = synthesize_edge_spec("edge_map_sparse", None, m, c, r)
        assert spec is not None
        assert spec.cond_unvisited == -1

    def test_min_fold(self):
        def m(s, d):
            d.x = s.x + 1
            return d

        def r(t, d):
            d.x = min(d.x, t.x)
            return d

        spec = synthesize_edge_spec("edge_map_sparse", None, m, None, r)
        assert spec is not None and spec.reduce == "min"

    def test_dense_refuses_cond_reading_written_prop(self):
        # Dense C reading the written property outside the write-once /
        # improve patterns observes mid-scan state — must be refused.
        def m(s, d):
            d.x = s.x + 1
            return d

        def c(v):
            return v.x > 3

        spec, reason = explain_edge("edge_map_dense", None, m, c, None)
        assert spec is None and reason

    def test_unanalyzable_callable_refused(self):
        import functools
        import operator

        bad = functools.reduce  # builtin: no recoverable AST
        spec, reason = explain_edge("edge_map_sparse", None, bad, None, None)
        assert spec is None and reason


# ---------------------------------------------------------------------------
# Communication planning
# ---------------------------------------------------------------------------
class _Classification:
    def __init__(self, critical, complete=True, remote_reads=(),
                 remote_writes=(), reads=()):
        class _Access:
            pass

        self.critical = set(critical)
        self.complete = complete
        self.access = _Access()
        self.access.remote_reads = set(remote_reads)
        self.access.remote_writes = set(remote_writes)
        self.access.reads = set(reads)


class TestCommunicationPlan:
    def test_neighbor_scope_by_default(self):
        plan = CommunicationPlan()
        plan.observe("edge_map_sparse", "k", _Classification({"x"}))
        assert plan.scope_of("x") == "neighbor"
        assert plan.narrow_props() == ["x"]

    def test_remote_read_forces_broadcast(self):
        plan = CommunicationPlan()
        plan.observe("edge_map_dense", "k",
                     _Classification({"x"}, remote_reads={"x"}))
        assert plan.scope_of("x") == "broadcast"

    def test_widening_bumps_version(self):
        plan = CommunicationPlan()
        plan.observe("edge_map_sparse", "a", _Classification({"x"}))
        v0 = plan.version
        plan.observe("edge_map_dense", "b",
                     _Classification({"x"}, remote_reads={"x"}))
        assert plan.scope_of("x") == "broadcast"
        assert plan.version > v0

    def test_virtual_kernel_broadcasts_reads(self):
        plan = CommunicationPlan()
        plan.observe(
            "edge_map_sparse", "k",
            _Classification({"p"}, reads={("target", "p")}),
            virtual=True,
        )
        assert plan.scope_of("p") == "broadcast"

    def test_incomplete_analysis_deactivates(self):
        plan = CommunicationPlan()
        plan.observe("edge_map_sparse", "a", _Classification({"x"}))
        plan.observe("edge_map_sparse", "b",
                     _Classification(set(), complete=False))
        assert not plan.active
        assert plan.scope_of("x") == "broadcast"
        assert plan.narrow_props() == []

    def test_unobserved_property_is_broadcast(self):
        plan = CommunicationPlan()
        assert plan.scope_of("ghost") == "broadcast"


# ---------------------------------------------------------------------------
# The plan artifact
# ---------------------------------------------------------------------------
class TestPlanArtifact:
    def test_build_plan_mis(self):
        plan = build_plan("mis")
        assert plan.plan_active
        assert plan.synthesized_kernels, "mis should synthesize kernels"
        dispatched = {k["kernel"]: k["dispatch"] for k in plan.kernels}
        assert any(d == "vectorized(synthesized)" for d in dispatched.values())
        totals = plan.predicted_totals
        assert totals["planned_bytes"] < totals["broadcast_bytes"]

    def test_render_plan_mentions_scopes(self):
        plan = build_plan("bfs")
        text = render_plan(plan)
        assert "communication plan: active" in text
        assert "dis" in text
        assert "dispatch=" in text

    def test_describe_roundtrips_to_json(self):
        import json

        plan = build_plan("gc")
        payload = json.loads(json.dumps(plan.describe(), sort_keys=True))
        assert payload["app"] == "gc"
        assert payload["plan_active"] is True

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            build_plan("nosuch")


# ---------------------------------------------------------------------------
# Synthesis first: a hand spec only where synthesis refuses
# ---------------------------------------------------------------------------
def _cc_init(v):
    v.cc = v.id
    return v


def _cc_check(s, d):
    return s.cc < d.cc


def _cc_update(s, d):
    d.cc = min(d.cc, s.cc)
    return d


def _never(k):
    raise AssertionError("a hand spec dispatched where synthesis succeeds")


#: Every hand spec the suite (plus pagerank and sssp) keeps, with the
#: synthesizer's refusal — any hand spec synthesis could write fails here.
REFUSED = {
    "edge_map_dense:bfs:step": "dense C reads the written property",
    "edge_map_dense:bcc:bfs": "dense C reads the written property",
    "edge_map_dense:kc:dec":
        "dense M reads its written property outside a running-combine form",
    "edge_map_sparse:kc:dec": "unrecognized reduce fold",
    "vertex_map:kc_opt:reset": "expression Dict",
    "vertex_map:lpa:init": "expression List",
    "edge_map_dense:lpa:gossip": "statement Expr",
    "vertex_map:lpa:tally": "assignment to a non-property target",
    "edge_map_dense:pr:scatter": "assignment to a non-property target",
    "vertex_map:pr:apply": "unresolvable name 'extra'",
    "edge_map_dense:sssp:relax": "call",
    "edge_map_sparse:sssp:relax": "call",
}


class TestSynthesisFirst:
    def test_hand_spec_yields_to_synthesis(self):
        """A hand spec whose value raises never runs on a kernel
        synthesis handles: the run completes and matches interp."""
        spec = EdgeMapSpec(prop="cc", reduce="min", value=_never, f="improve",
                           reads=("cc",))
        graph = random_graph(26, 70, seed=3)

        def run(backend):
            with FlashEngine(graph, num_workers=3, backend=backend) as eng:
                eng.add_property("cc", 0)
                U = eng.vertex_map(eng.V, ctrue, _cc_init, label="t:init")
                while U.size():
                    U = eng.edge_map(U, eng.E, _cc_check, _cc_update, ctrue, _cc_update,
                                     label="t:step", spec=spec)
                return eng.values("cc"), eng.metrics.summary(), dict(eng.kernel_plan)

        values, summary, plan = run("vectorized")
        assert (values, summary) == run("interp")[:2]
        steps = {k: e for k, e in plan.items() if k.endswith("t:step")}
        assert steps and all(
            e["origin"] == "synthesized" and e["dispatched"] for e in steps.values()
        ), steps

    def test_hand_specs_are_exactly_the_refused_kernels(self):
        hand, printed = {}, []
        for app in APPS:
            plan = build_plan(app)
            printed.append(render_plan(plan))
            hand.update((k["kernel"], k["reason"]) for k in plan.kernels
                        if k["dispatch"] == "vectorized(hand)")
        graph = random_graph(40, 120, seed=11)
        for program, g in ((pagerank, graph), (sssp, graph.with_random_weights(seed=7))):
            with use_config(backend="vectorized"), capture_plan() as cap:
                program(g, num_workers=3)
            hand.update((k, e["reason"]) for k, e in cap.merged_kernels().items()
                        if e["origin"] == "hand" and e["dispatched"])
        assert hand == REFUSED
        text = "\n".join(printed)
        for kernel, reason in REFUSED.items():
            if kernel.split(":")[1] not in ("pr", "sssp"):
                assert f"dispatch=vectorized(hand) reason={reason}" in text, kernel


# ---------------------------------------------------------------------------
# The sparse sentinel mask
# ---------------------------------------------------------------------------
def _set_dis(v, dis):
    v.dis = dis[v.id]
    return v


def _bfs_update(s, d):
    d.dis = s.dis + 1
    return d


def _bfs_cond(v):
    return v.dis == INF


def _bfs_reduce(t, d):
    return t


def _sparse_step(graph, dis, frontier, spec=None, backend="vectorized"):
    """One sparse BFS step from ``frontier`` over the column ``dis``, run
    by the engine: interpreted or synthesized (``spec=None``), or by the
    hand ``spec`` where synthesis is made to refuse the kernel."""
    with FlashEngine(graph, num_workers=3, backend=backend) as eng, \
            pytest.MonkeyPatch.context() as mp:
        eng.add_property("dis", INF)
        eng.vertex_map(eng.V, ctrue, bind(_set_dis, dis), label="t:set")
        if spec is not None:
            mp.setattr(synthesize, "explain_edge", lambda *a: (None, "refused"))
        out = eng.edge_map_sparse(eng.subset(sorted(frontier)), eng.E, ctrue, _bfs_update,
                                  _bfs_cond, _bfs_reduce, label="t:step", spec=spec)
        rec = eng.metrics.records[-1]
        if backend == "vectorized":
            assert eng.metrics.backend_choices.get("vectorized") == 1  # the step
        return (eng.values("dis"), sorted(out), list(rec.worker_ops),
                rec.reduce_messages, rec.reduce_values, rec.sync_messages,
                rec.sync_values, rec.frontier_out)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000),
       dis=st.lists(st.sampled_from([0.0, 1.0, 2.0, INF]), min_size=24, max_size=24),
       frontier=st.sets(st.integers(0, 23), min_size=1))
@example(seed=1, dis=[INF] * 12 + [0.0] * 12, frontier={0, 1, 2, 12})  # INF + 1 == INF
def test_sparse_sentinel_mask_equals_the_general_cond(seed, dis, frontier):
    """The synthesized sparse write-once spec (``cond_unvisited``) gives
    the values, frontier and charged ops of the general-``cond`` form —
    also when a written value equals the sentinel (``INF + 1``)."""
    graph = random_graph(24, 70, seed=seed)
    spec = synthesize_edge_spec("edge_map_sparse", ctrue, _bfs_update, _bfs_cond, _bfs_reduce)
    assert spec.cond is None and spec.cond_unvisited == INF
    general = replace(spec, cond_unvisited=NOT_SET, cond=compile_vertex(
        Compare("==", Prop("target", "dis"), Const(INF))))
    sentinel = _sparse_step(graph, dis, frontier, spec)
    assert sentinel == _sparse_step(graph, dis, frontier, general)
    assert sentinel == _sparse_step(graph, dis, frontier)
    assert sentinel == _sparse_step(graph, dis, frontier, backend="interp")


# ---------------------------------------------------------------------------
# mp executor: plan-driven withholding
# ---------------------------------------------------------------------------
class TestDistributedWithholding:
    def test_bfs_mp_withholds_and_matches(self):
        graph = prepare_graph("bfs", random_graph(24, 64, seed=5))
        inline = run_app("flash", "bfs", graph, num_workers=2)
        planned = run_app("flash", "bfs", graph, num_workers=2, executor="mp")
        assert planned.values == inline.values
        dist = planned.extra["distributed"]
        # The planner withholds every delta a non-neighbor mirror would
        # have received: no extra entries ship, withheld counts them.
        assert dist["withheld_entries"] > 0
        assert dist["extra_entries"] == 0
