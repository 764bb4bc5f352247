"""Tests for the FLASHWARE middleware: superstep lifecycle, barrier
accounting, critical-property sync and the §IV-C optimizations."""

import numpy as np
import pytest

from repro import Graph, FlashwareOptions
from repro.runtime.flashware import Flashware, values_equal


@pytest.fixture
def fw():
    # Path 0-1-2-3 over 2 workers (hash): owners 0,1,0,1.
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    f = Flashware(g, num_workers=2)
    f.state.add_property("x", 0)
    f.state.add_property("y", 0)
    return f


class TestLifecycle:
    def test_begin_and_barrier(self, fw):
        fw.begin_superstep("vertex_map", frontier_in=4)
        changed = fw.barrier({0: {"x": 5}}, frontier_out=1)
        assert changed == {0}
        assert fw.state.get(0, "x") == 5
        rec = fw.metrics.records[0]
        assert rec.frontier_in == 4 and rec.frontier_out == 1

    def test_nested_superstep_rejected(self, fw):
        fw.begin_superstep("vertex_map")
        with pytest.raises(RuntimeError):
            fw.begin_superstep("vertex_map")

    def test_barrier_without_begin_rejected(self, fw):
        with pytest.raises(RuntimeError):
            fw.barrier({})

    def test_abort_allows_new_superstep(self, fw):
        fw.begin_superstep("vertex_map")
        fw.abort_superstep()
        fw.begin_superstep("vertex_map")  # should not raise
        fw.barrier({})

    def test_unchanged_value_not_committed(self, fw):
        fw.begin_superstep("vertex_map")
        changed = fw.barrier({0: {"x": 0}})  # same as current
        assert changed == set()

    def test_charge_ops(self, fw):
        fw.begin_superstep("vertex_map")
        fw.charge_ops(0, 3)
        fw.charge_ops(1, 2)
        fw.barrier({})
        assert fw.metrics.records[0].worker_ops == [3, 2]

    def test_get_returns_row(self, fw):
        assert fw.get(2) == {"x": 0, "y": 0}


class TestSyncAccounting:
    def test_no_sync_for_noncritical(self, fw):
        fw.begin_superstep("vertex_map")
        fw.barrier({1: {"x": 9}})
        rec = fw.metrics.records[0]
        assert rec.sync_messages == 0

    def test_sync_for_critical_to_necessary_mirrors(self, fw):
        fw.begin_superstep("edge_map_sparse")
        fw.mark_critical(["x"])
        fw.barrier({1: {"x": 9}})
        rec = fw.metrics.records[0]
        # vertex 1 (worker 1) has neighbors 0, 2 on worker 0 -> 1 mirror.
        assert rec.sync_messages == 1
        assert rec.sync_values == 1

    def test_broadcast_all_hits_every_partition(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        fw = Flashware(g, num_workers=4)
        fw.state.add_property("x", 0)
        fw.begin_superstep("edge_map_sparse")
        fw.mark_critical(["x"])
        fw.barrier({0: {"x": 1}}, broadcast_all=True)
        assert fw.metrics.records[0].sync_messages == 3  # all other workers

    def test_sync_all_when_critical_only_disabled(self):
        g = Graph.from_edges([(0, 1)])
        fw = Flashware(g, num_workers=2, options=FlashwareOptions(sync_critical_only=False))
        fw.state.add_property("x", 0)
        fw.begin_superstep("vertex_map")
        fw.barrier({0: {"x": 1}})
        assert fw.metrics.records[0].sync_messages == 1

    def test_reduce_round_counts_remote_contributors(self, fw):
        fw.begin_superstep("edge_map_sparse")
        fw.barrier({0: {"x": 3}}, contributors={0: {0, 1}})
        rec = fw.metrics.records[0]
        assert rec.reduce_messages == 1  # only worker 1 is remote for vertex 0

    def test_local_contributor_free(self, fw):
        fw.begin_superstep("edge_map_sparse")
        fw.barrier({0: {"x": 3}}, contributors={0: {0}})
        assert fw.metrics.records[0].reduce_messages == 0


class TestCriticalMarking:
    def test_mark_unknown_property_rejected(self, fw):
        with pytest.raises(KeyError):
            fw.mark_critical(["zzz"])

    def test_idempotent(self, fw):
        fw.mark_critical(["x"])
        fw.mark_critical(["x"])
        assert fw.critical_properties == {"x"}
        assert fw.is_critical("x") and not fw.is_critical("y")

    def test_late_promotion_pays_unsynced_debt(self, fw):
        # Change x on vertices 0 and 2 while it is non-critical: nothing
        # is synced, but the debt is remembered.
        fw.begin_superstep("vertex_map")
        fw.barrier({0: {"x": 1}, 2: {"x": 2}})
        assert fw.metrics.records[0].sync_messages == 0
        # Promotion pays exactly those vertices' mirror syncs.
        fw.begin_superstep("edge_map_dense")
        fw.mark_critical(["x"])
        fw.barrier({})
        rec = fw.metrics.records[1]
        # Vertices 0 and 2 (worker 0) each have one mirror on worker 1.
        assert rec.sync_messages == 2
        assert rec.sync_values == 2

    @pytest.mark.parametrize("kind", ["array", "object"])
    def test_late_promotion_debt_columnar_twin(self, kind):
        """The same changes committed through ``barrier_columnar`` then
        promoted charge what the interp ``barrier`` path charges, and a
        checkpoint -> restore in between preserves the debt."""
        # Directed, 2 workers (hash): 0->1 and 2->1 cross partitions, so
        # 0, 1, 2 each have one mirror; 3->5 stays inside partition 1 and
        # 4 is isolated — no mirrors.
        g = Graph.from_edges([(0, 1), (2, 1), (3, 5)], directed=True, num_vertices=6)
        if kind == "array":
            default, late = 0, 99
            changes = {0: 7, 1: 8, 3: 9, 4: 10}
            expected = (2, 2)  # vertices 0 and 1, one scalar each
        else:
            default, late = [], [9, 9]
            changes = {0: [1], 1: [1, 2, 3], 3: [4, 5], 4: [6]}
            expected = (2, 1 + 3)  # whole lists ship
        ids = np.array(sorted(changes), dtype=np.int64)
        values = [changes[v] for v in ids.tolist()]

        def commit_interp(fw, updates):
            fw.barrier({v: {"x": val} for v, val in updates.items()})

        def commit_columnar(fw, updates):
            vids = np.array(sorted(updates), dtype=np.int64)
            column = [updates[v] for v in vids.tolist()]
            fw.barrier_columnar(
                vids, {"x": np.array(column) if kind == "array" else column}
            )

        charged = []
        for typed, commit in ((False, commit_interp), (True, commit_columnar)):
            fw = Flashware(g, num_workers=2, typed_state=typed)
            fw.state.add_property("x", default)
            assert isinstance(fw.state.column("x"), np.ndarray) == (
                typed and kind == "array"
            )
            fw.begin_superstep("vertex_map")
            commit(fw, changes)
            assert fw.metrics.records[0].sync_messages == 0
            snapshot = fw.checkpoint()
            # a later unsynced change (vertex 2 has a mirror) is rolled
            # back by the restore, debt included
            fw.begin_superstep("vertex_map")
            commit(fw, {2: late})
            fw.restore(snapshot)
            assert fw.state.get(2, "x") == default
            fw.begin_superstep("edge_map_dense")
            fw.mark_critical(["x"])
            fw.barrier({})
            rec = fw.metrics.records[-1]
            charged.append((rec.sync_messages, rec.sync_values))
            assert [fw.state.get(v, "x") for v in ids.tolist()] == values
        assert charged == [expected, expected]

    def test_fresh_property_no_catchup(self, fw):
        fw.begin_superstep("edge_map_dense")
        fw.mark_critical(["x"])  # no unsynced changes exist
        fw.barrier({})
        assert fw.metrics.records[0].sync_messages == 0

    def test_collection_payload_counted(self):
        g = Graph.from_edges([(0, 1)])
        fw = Flashware(g, num_workers=2)
        fw.state.add_property("bag", set())
        fw.begin_superstep("edge_map_sparse")
        fw.mark_critical(["bag"])
        fw.barrier({0: {"bag": {1, 2, 3}}})
        rec = fw.metrics.records[0]
        assert rec.sync_messages == 1
        assert rec.sync_values == 3  # set contents ship


class TestValuesEqual:
    def test_scalars(self):
        assert values_equal(1, 1)
        assert not values_equal(1, 2)

    def test_collections(self):
        assert values_equal({1, 2}, {2, 1})
        assert not values_equal([1], [1, 2])

    def test_incomparable_treated_as_changed(self):
        class Weird:
            def __eq__(self, other):
                raise TypeError

        assert not values_equal(Weird(), Weird())

    def test_nan_rewrite_is_unchanged(self):
        """Regression: NaN != NaN, but a NaN overwritten with NaN is not
        a *change* — treating it as one re-syncs the value every
        superstep forever."""
        import numpy as np

        nan = float("nan")
        assert values_equal(nan, float("nan"))
        assert values_equal(np.float64("nan"), nan)
        assert not values_equal(nan, 1.0)
        assert not values_equal(nan, "nan")


class TestNaNChangeDetection:
    """The NaN==NaN rule applied at both barriers (interp + columnar)."""

    def test_barrier_nan_rewrite_not_synced(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        fw = Flashware(g, num_workers=2)
        fw.state.add_property("d", float("nan"))
        fw.mark_critical(["d"])
        fw.begin_superstep("vertex_map")
        changed = fw.barrier({vid: {"d": float("nan")} for vid in range(4)})
        assert changed == set()
        rec = fw.metrics.records[0]
        assert rec.sync_messages == 0 and rec.sync_values == 0

    def test_barrier_columnar_nan_mask(self):
        import math

        import numpy as np

        from repro import FlashEngine
        from repro.runtime.vectorized import use_backend

        with use_backend("vectorized"):
            eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2), (2, 3)]),
                              num_workers=2)
        fw = eng.flashware
        eng.add_property("d", float("nan"))
        assert fw.state.array("d") is not None  # the float-array fast path
        fw.mark_critical(["d"])
        ids = np.arange(4)
        fw.begin_superstep("vertex_map")
        fw.barrier_columnar(ids, {"d": np.full(4, np.nan)})
        rec = fw.metrics.records[-1]
        assert rec.sync_messages == 0 and rec.sync_values == 0
        # A genuine NaN -> value transition still registers.
        fw.begin_superstep("vertex_map")
        fw.barrier_columnar(ids, {"d": np.array([np.nan, 1.0, np.nan, np.nan])})
        assert fw.state.get(1, "d") == 1.0
        assert math.isnan(fw.state.get(0, "d"))
        assert fw.metrics.records[-1].sync_values > 0


def test_partition_mismatch_rejected():
    g1 = Graph.from_edges([(0, 1)])
    g2 = Graph.from_edges([(0, 1)])
    from repro.graph.partition import partition_graph

    pm = partition_graph(g2, 2)
    with pytest.raises(ValueError):
        Flashware(g1, partition=pm)
