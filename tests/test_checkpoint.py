"""Failure-injection tests: checkpoint/restore of the committed BSP
state, and recovery mid-algorithm."""

import pytest

from repro import FlashEngine, Graph, ctrue, random_graph
from repro.algorithms import INF, bfs
from repro.algorithms.diameter import bfs_on_existing


@pytest.fixture
def engine():
    eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2)]), num_workers=2)
    eng.add_property("x", 0)
    return eng


class TestCheckpointRestore:
    def test_round_trip(self, engine):
        engine.vertex_map(engine.V, ctrue, lambda v: setattr(v, "x", v.id * 2) or v)
        snapshot = engine.flashware.checkpoint()
        engine.vertex_map(engine.V, ctrue, lambda v: setattr(v, "x", 99) or v)
        assert engine.values("x") == [99, 99, 99]
        engine.flashware.restore(snapshot)
        assert engine.values("x") == [0, 2, 4]

    def test_collections_deep_copied(self):
        eng = FlashEngine(Graph.from_edges([(0, 1)]), num_workers=1)
        eng.add_property("bag", factory=set)
        eng.vertex_map(eng.V, ctrue, lambda v: setattr(v, "bag", {v.id}) or v)
        snapshot = eng.flashware.checkpoint()
        # Mutate the live state in place; restore must undo it.
        eng.flashware.state.column("bag")[0].add(777)
        eng.flashware.restore(snapshot)
        assert eng.value(0, "bag") == {0}

    def test_critical_set_restored(self, engine):
        snapshot = engine.flashware.checkpoint()
        engine.flashware.mark_critical(["x"])
        engine.flashware.restore(snapshot)
        assert engine.flashware.critical_properties == set()

    def test_checkpoint_mid_superstep_rejected(self, engine):
        engine.flashware.begin_superstep("vertex_map")
        with pytest.raises(RuntimeError):
            engine.flashware.checkpoint()
        engine.flashware.abort_superstep()

    def test_restore_mid_superstep_rejected(self, engine):
        snapshot = engine.flashware.checkpoint()
        engine.flashware.begin_superstep("vertex_map")
        with pytest.raises(RuntimeError):
            engine.flashware.restore(snapshot)
        engine.flashware.abort_superstep()

    def test_restore_drops_properties_created_after_snapshot(self, engine):
        """Rollback covers the property *set* too: a property declared
        after the snapshot must not survive the restore (a replayed
        ``add_property`` would collide with the stale column)."""
        snapshot = engine.flashware.checkpoint()
        engine.add_property("y", 7)
        engine.flashware.restore(snapshot)
        assert not engine.flashware.state.has_property("y")
        # The exact replay path: re-declaring and re-running works.
        engine.add_property("y", 7)
        engine.vertex_map(engine.V, ctrue, lambda v: setattr(v, "y", v.id) or v)
        assert engine.values("y") == [0, 1, 2]

    def test_restore_reinstalls_properties_dropped_after_snapshot(self, engine):
        engine.vertex_map(engine.V, ctrue, lambda v: setattr(v, "x", v.id) or v)
        snapshot = engine.flashware.checkpoint()
        engine.drop_property("x")
        engine.flashware.restore(snapshot)
        assert engine.values("x") == [0, 1, 2]


class TestVectorizedCheckpoint:
    """Checkpoint/restore of the typed column store, including the
    column-demotion and abort paths recovery exercises."""

    @pytest.mark.parametrize("backend", ["interp", "vectorized"])
    def test_restore_installs_snapshot_representation(self, backend):
        """Regression: a demoted (list) snapshot restored over a live
        int64 column of the same name was copied into it value by value,
        and NumPy truncated 2.5 to 2."""
        eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2)]), num_workers=2,
                          backend=backend)
        eng.add_property("x", 0)
        eng.vertex_map(eng.subset([0]), ctrue, lambda v: setattr(v, "x", 2.5) or v)
        snapshot = eng.flashware.checkpoint()
        eng.drop_property("x")
        eng.add_property("x", 0)
        eng.flashware.restore(snapshot)
        assert eng.value(0, "x") == 2.5
        assert eng.values("x") == [2.5, 0, 0]

    def test_restore_after_column_demotion(self):
        """A NumPy column demoted to an object list *between* checkpoint
        and restore: the array snapshot must restore into the live list
        column without losing values."""
        from repro.core.config import use_config

        with use_config(backend="vectorized"):
            eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2)]), num_workers=2)
        eng.add_property("x", 0)
        assert eng.flashware.state.array("x") is not None
        eng.vertex_map(eng.V, ctrue, lambda v: setattr(v, "x", v.id + 1) or v)
        snapshot = eng.flashware.checkpoint()
        # Demote: a write the int64 column cannot hold.
        eng.vertex_map(eng.V, ctrue, lambda v: setattr(v, "x", "poison") or v)
        assert eng.flashware.state.array("x") is None
        eng.flashware.restore(snapshot)
        assert eng.values("x") == [1, 2, 3]
        # And the demoted column keeps working after the restore.
        eng.vertex_map(eng.V, ctrue, lambda v: setattr(v, "x", v.x * 10) or v)
        assert eng.values("x") == [10, 20, 30]

    def test_restore_after_abort_mid_algorithm(self):
        """restore() after abort_superstep() mid-algorithm — the exact
        sequence a worker failure triggers — must yield the same final
        values as an undisturbed run, on both backends."""
        from repro.core.config import use_config

        graph = random_graph(30, 70, seed=5)
        reference = bfs(graph, root=0).values
        for backend in ("interp", "vectorized"):
            with use_config(backend=backend):
                eng = FlashEngine(graph, num_workers=4)
            eng.add_property("dis", INF)
            from repro.core.primitives import bind, ctrue as CT

            def init(v, r):
                v.dis = 0 if v.id == r else INF
                return v

            def update(s, d):
                d.dis = s.dis + 1
                return d

            eng.vertex_map(eng.V, CT, bind(init, 0))
            frontier = eng.vertex_map(eng.V, lambda v: v.id == 0)
            frontier = eng.edge_map(frontier, eng.E, CT, update,
                                    lambda v: v.dis == INF, lambda t, d: t)
            snapshot = eng.flashware.checkpoint()
            frontier_ids = frontier.ids()

            # A superstep dies in flight: abort, then roll back.
            eng.flashware.begin_superstep("edge_map_sparse", "doomed")
            eng.flashware.abort_superstep()
            eng.flashware.state.set(0, "dis", -1)  # scribble
            eng.flashware.restore(snapshot)

            frontier = eng.subset(frontier_ids)
            while eng.size(frontier) != 0:
                frontier = eng.edge_map(frontier, eng.E, CT, update,
                                        lambda v: v.dis == INF, lambda t, d: t)
            assert eng.values("dis") == reference
            assert eng.flashware.metrics.aborted_supersteps == 1


class TestRecoveryScenario:
    def test_bfs_recovers_from_mid_run_corruption(self):
        """Simulated worker failure: corrupt the state mid-BFS, restore
        the checkpoint, re-run — final distances are unaffected."""
        graph = random_graph(30, 70, seed=5)
        reference = bfs(graph, root=0).values

        eng = FlashEngine(graph, num_workers=4)
        eng.add_property("dis", INF)
        # Run the first half normally, then checkpoint.
        from repro.core.primitives import bind, ctrue as CT

        def init(v, r):
            v.dis = 0 if v.id == r else INF
            return v

        def update(s, d):
            d.dis = s.dis + 1
            return d

        eng.vertex_map(eng.V, CT, bind(init, 0))
        frontier = eng.vertex_map(eng.V, lambda v: v.id == 0)
        frontier = eng.edge_map(frontier, eng.E, CT, update, lambda v: v.dis == INF, lambda t, d: t)
        snapshot = eng.flashware.checkpoint()
        frontier_ids = frontier.ids()

        # "Failure": a worker scribbles garbage over the distances.
        for vid in range(0, graph.num_vertices, 3):
            eng.flashware.state.set(vid, "dis", -42)

        # Recovery: restore and resume from the checkpointed frontier.
        eng.flashware.restore(snapshot)
        frontier = eng.subset(frontier_ids)
        while eng.size(frontier) != 0:
            frontier = eng.edge_map(frontier, eng.E, CT, update, lambda v: v.dis == INF, lambda t, d: t)
        assert eng.values("dis") == reference
