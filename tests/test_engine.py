"""Tests for the FLASH engine kernels: VERTEXMAP / EDGEMAP semantics,
BSP visibility, dense/sparse equivalence and accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlashEngine, Graph, ctrue, random_graph
from repro.core.vertex import TracingView
from repro.errors import FlashUsageError


def make_engine(edges=((0, 1), (1, 2), (2, 3)), workers=2, **kw):
    eng = FlashEngine(Graph.from_edges(list(edges)), num_workers=workers, **kw)
    eng.add_property("x", 0)
    return eng


class TestVertexMap:
    def test_filter_only(self):
        eng = make_engine()
        out = eng.vertex_map(eng.V, lambda v: v.id % 2 == 0)
        assert list(out) == [0, 2]

    def test_map_updates_state(self):
        eng = make_engine()

        def bump(v):
            v.x = v.id * 10
            return v

        eng.vertex_map(eng.V, ctrue, bump)
        assert eng.values("x") == [0, 10, 20, 30]

    def test_output_is_filter_pass_set(self):
        eng = make_engine()

        def noop(v):
            return v

        out = eng.vertex_map(eng.V, lambda v: v.id > 1, noop)
        assert list(out) == [2, 3]

    def test_updates_invisible_within_superstep(self):
        """BSP: one vertex's update must not be seen by another vertex in
        the same VERTEXMAP."""
        eng = make_engine()
        seen = {}

        def probe(v):
            seen[v.id] = eng.value(0, "x") if v.id == 3 else None
            if v.id == 0:
                v.x = 777
            return v

        eng.vertex_map(eng.V, ctrue, probe)
        assert seen[3] == 0  # vertex 3 saw vertex 0's *old* value
        assert eng.value(0, "x") == 777  # committed after the barrier

    def test_missing_return_tolerated(self):
        eng = make_engine()

        def forgetful(v):
            v.x = 1  # no return

        eng.vertex_map(eng.V, ctrue, forgetful)
        assert eng.values("x") == [1, 1, 1, 1]

    def test_exception_aborts_superstep(self):
        eng = make_engine()

        def boom(v):
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            eng.vertex_map(eng.V, ctrue, boom)
        # Engine is still usable afterwards.
        eng.vertex_map(eng.V, ctrue)

    def test_empty_subset(self):
        eng = make_engine()
        out = eng.vertex_map(eng.empty(), ctrue, lambda v: v)
        assert out.size() == 0

    def test_ops_charged_per_call(self):
        eng = make_engine(workers=1)
        eng.vertex_map(eng.V, ctrue, lambda v: v)
        rec = eng.metrics.records[-1]
        assert rec.total_ops == 8  # 4 F evals + 4 M evals


class TestEdgeMapSparse:
    def test_requires_reduce(self):
        eng = make_engine()
        with pytest.raises(FlashUsageError):
            eng.edge_map_sparse(eng.V, eng.E, ctrue, lambda s, d: d, None, None)

    def test_requires_map(self):
        eng = make_engine()
        with pytest.raises(FlashUsageError):
            eng.edge_map_sparse(eng.V, eng.E, ctrue, None, None, lambda t, d: t)

    def test_push_from_frontier(self):
        eng = make_engine()

        def mark(s, d):
            d.x = s.id + 100
            return d

        out = eng.edge_map_sparse(eng.subset([0]), eng.E, ctrue, mark, None, lambda t, d: t)
        assert list(out) == [1]
        assert eng.value(1, "x") == 100

    def test_reduce_folds_concurrent_updates(self):
        # Star: 0,2 both update 1.
        eng = FlashEngine(Graph.from_edges([(0, 1), (2, 1)]), num_workers=2)
        eng.add_property("x", 0)

        def add(s, d):
            d.x = d.x + 1
            return d

        def rsum(t, d):
            d.x = d.x + t.x
            return d

        eng.edge_map_sparse(eng.subset([0, 2]), eng.E, ctrue, add, None, rsum)
        # Two temps of value 1 each, folded from current 0.
        assert eng.value(1, "x") == 2

    def test_cond_checked_on_current_state(self):
        eng = make_engine()
        eng.flashware.state.set(2, "x", 5)

        def mark(s, d):
            d.x = 99
            return d

        out = eng.edge_map_sparse(
            eng.subset([1]), eng.E, ctrue, mark, lambda v: v.x == 0, lambda t, d: t
        )
        assert list(out) == [0]  # vertex 2 was skipped by C

    def test_f_receives_source_snapshot_and_target_copy(self):
        eng = make_engine()
        eng.flashware.state.set(0, "x", 7)
        captured = []

        def f(s, d):
            # the views escape into a call, so the static pass is
            # incomplete and the sample trace also runs F once, on
            # recording views
            if not isinstance(s, TracingView):
                captured.append((s.x, d.x))
            return True

        eng.edge_map_sparse(eng.subset([0]), eng.E, f, lambda s, d: d, None, lambda t, d: t)
        assert captured == [(7, 0)]

    def test_source_is_read_only(self):
        eng = make_engine()

        def bad(s, d):
            s.x = 1
            return d

        with pytest.raises(FlashUsageError):
            eng.edge_map_sparse(eng.subset([0]), eng.E, ctrue, bad, None, lambda t, d: t)

    def test_remote_reduce_messages_charged(self):
        # 0 and 2 (worker 0) push to 1 (worker 1).
        eng = FlashEngine(Graph.from_edges([(0, 1), (2, 1)]), num_workers=2)
        eng.add_property("x", 0)

        def mark(s, d):
            d.x = d.x + 1
            return d

        def rsum(t, d):
            d.x = d.x + t.x
            return d

        eng.edge_map_sparse(eng.subset([0, 2]), eng.E, ctrue, mark, None, rsum)
        rec = eng.metrics.records[-1]
        # Mirror-side pre-aggregation: one reduce message from worker 0.
        assert rec.reduce_messages == 1


class TestEdgeMapDense:
    def test_pull_applies_sequentially(self):
        eng = FlashEngine(Graph.from_edges([(0, 1), (2, 1)]), num_workers=1)
        eng.add_property("x", 0)

        def add(s, d):
            d.x = d.x + 1
            return d

        out = eng.edge_map_dense(eng.subset([0, 2]), eng.E, ctrue, add)
        assert list(out) == [1]
        assert eng.value(1, "x") == 2  # both sources applied in sequence

    def test_cond_break_stops_scan(self):
        eng = FlashEngine(Graph.from_edges([(0, 1), (2, 1), (3, 1)]), num_workers=1)
        eng.add_property("x", 0)

        def add(s, d):
            d.x = d.x + 1
            return d

        eng.edge_map_dense(eng.subset([0, 2, 3]), eng.E, ctrue, add, lambda v: v.x == 0)
        assert eng.value(1, "x") == 1  # C failed after first application

    def test_sources_outside_frontier_skipped(self):
        eng = FlashEngine(Graph.from_edges([(0, 1), (2, 1)]), num_workers=1)
        eng.add_property("x", 0)

        def add(s, d):
            d.x = d.x + 1
            return d

        eng.edge_map_dense(eng.subset([0]), eng.E, ctrue, add)
        assert eng.value(1, "x") == 1

    def test_requires_map(self):
        eng = make_engine()
        with pytest.raises(FlashUsageError):
            eng.edge_map_dense(eng.V, eng.E, ctrue, None)

    def test_f_sees_evolving_target(self):
        eng = FlashEngine(Graph.from_edges([(0, 1), (2, 1)]), num_workers=1)
        eng.add_property("x", 0)
        seen = []

        def f(s, d):
            seen.append(d.x)
            return True

        def add(s, d):
            d.x = d.x + 1
            return d

        eng.edge_map_dense(eng.subset([0, 2]), eng.E, f, add)
        assert seen == [0, 1]  # second source saw the first update


class TestEdgeMapAuto:
    def test_no_reduce_forces_dense(self):
        eng = make_engine()
        eng.edge_map(eng.subset([0]), eng.E, ctrue, lambda s, d: d, None, None)
        assert eng.metrics.mode_choices == {"dense": 1}

    def test_small_frontier_goes_sparse(self):
        g = random_graph(50, 200, seed=0)
        eng = FlashEngine(g, num_workers=2)
        eng.add_property("x", 0)
        eng.edge_map(eng.subset([0]), eng.E, ctrue, lambda s, d: d, None, lambda t, d: t)
        assert eng.metrics.mode_choices == {"sparse": 1}

    def test_large_frontier_goes_dense(self):
        g = random_graph(50, 200, seed=0)
        eng = FlashEngine(g, num_workers=2)
        eng.add_property("x", 0)
        eng.edge_map(eng.V, eng.E, ctrue, lambda s, d: d, None, lambda t, d: t)
        assert eng.metrics.mode_choices == {"dense": 1}

    def test_threshold_override(self):
        g = random_graph(50, 200, seed=0)
        eng = FlashEngine(g, num_workers=2, dense_threshold=10**9)
        eng.add_property("x", 0)
        eng.edge_map(eng.V, eng.E, ctrue, lambda s, d: d, None, lambda t, d: t)
        assert eng.metrics.mode_choices == {"sparse": 1}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 14),
    m=st.integers(2, 30),
    seed=st.integers(0, 10),
    frontier=st.sets(st.integers(0, 13), min_size=1),
)
def test_dense_sparse_equivalence_min_propagation(n, m, seed, frontier):
    """Property: with an idempotent, commutative update (min), the dense
    and sparse kernels commit identical states and identical output
    frontiers."""
    g = random_graph(n, m, seed=seed)
    frontier = {v % n for v in frontier}

    def run(mode):
        eng = FlashEngine(g, num_workers=2)
        eng.add_property("lbl", 0)
        eng.vertex_map(eng.V, ctrue, lambda v: setattr(v, "lbl", v.id) or v)

        def f(s, d):
            return s.lbl < d.lbl

        def m_(s, d):
            d.lbl = min(d.lbl, s.lbl)
            return d

        kern = eng.edge_map_dense if mode == "dense" else eng.edge_map_sparse
        if mode == "dense":
            out = kern(eng.subset(frontier), eng.E, f, m_, ctrue)
        else:
            out = kern(eng.subset(frontier), eng.E, f, m_, ctrue, m_)
        return eng.values("lbl"), set(out)

    dense_state, dense_out = run("dense")
    sparse_state, sparse_out = run("sparse")
    assert dense_state == sparse_state
    assert dense_out == sparse_out


class TestEngineMisc:
    def test_reserved_property_name_rejected(self):
        eng = make_engine()
        with pytest.raises(FlashUsageError):
            eng.add_property("deg", 0)

    def test_get_view_is_read_only(self):
        eng = make_engine()
        view = eng.get(1)
        assert view.x == 0
        with pytest.raises(FlashUsageError):
            view.x = 1

    def test_remote_get_promotes_to_critical(self):
        eng = make_engine()
        _ = eng.get(1).x
        assert "x" in eng.flashware.critical_properties

    def test_collect_gathers_and_charges(self):
        eng = make_engine(workers=2)
        gathered = eng.collect({0: ["a"], 1: ["b", "c"]})
        assert gathered == ["a", "b", "c"]
        rec = eng.metrics.records[-1]
        assert rec.reduce_messages == 1  # worker 1's contribution
        assert rec.reduce_values == 2

    def test_cost_helper(self):
        eng = make_engine()
        eng.vertex_map(eng.V, ctrue, lambda v: v)
        assert eng.cost().total > 0

    def test_reset_metrics(self):
        eng = make_engine()
        eng.vertex_map(eng.V, ctrue)
        eng.reset_metrics()
        assert eng.metrics.num_supersteps == 0

    def test_size(self):
        eng = make_engine()
        assert eng.size(eng.V) == 4
