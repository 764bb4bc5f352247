"""Spec synthesis (the kernel compiler every engine runs): fuzzed interp parity, synthesizer
unit behavior, communication planning and the plan artifact."""

import numpy as np
import pytest

from repro.analysis.compile import (
    build_plan,
    cross_validate,
    explain_edge,
    explain_vertex,
    render_plan,
    synthesize_edge_spec,
    synthesize_vertex_spec,
)
from repro.analysis.compile.commplan import CommunicationPlan
from repro.graph.generators import random_graph
from repro.suite import prepare_graph, run_app

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
        # Apps with hand specs keep them (hand wins over synthesis) and
        # stay bit-identical.
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
        # ``s.dis + 1`` is not provably != -1, so the synthesizer may
        # keep C as a general mask rather than the sentinel fast path.
        assert spec.cond is not None or spec.cond_unvisited == -1

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
# The plan artifact + crosscheck
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


class TestCrossValidate:
    def test_bfs_swaps_hand_specs_and_stays_identical(self):
        result = cross_validate("bfs")
        assert result.ok, result.describe()
        assert result.swapped, "forcing synthesis should swap hand specs"
        # the hand spec forced synthesis keeps says why synthesis refused
        assert result.kept == {
            "edge_map_dense:bfs:step": "dense C reads the written property"
        }

    @pytest.mark.parametrize("app", ["mis", "gc"])
    def test_newly_covered_identical(self, app):
        result = cross_validate(app)
        assert result.ok, result.describe()


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
