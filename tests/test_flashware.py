"""Tests for the FLASHWARE middleware: superstep lifecycle, barrier
accounting, critical-property sync and the §IV-C optimizations.

Every kernel commits through the one columnar ``Flashware.barrier``;
the interpreted kernels' ``{vid: {prop: value}}`` updates reach it
through :func:`repro.core.interp.columns`, as the engine hands them
over, and so do the per-vertex cases here."""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np
import pytest

from repro import Graph, FlashwareOptions
from repro.core import interp
from repro.runtime.flashware import Flashware, values_equal


def commit(fw, updates, contributors=None, **kwargs):
    """The engine's hand-off: per-vertex updates into the one barrier."""
    fw.barrier(*interp.columns(updates, contributors), **kwargs)


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
        commit(fw, {0: {"x": 5}}, frontier_out=1)
        assert fw.state.get(0, "x") == 5
        rec = fw.metrics.records[0]
        assert rec.frontier_in == 4 and rec.frontier_out == 1

    def test_nested_superstep_rejected(self, fw):
        fw.begin_superstep("vertex_map")
        with pytest.raises(RuntimeError):
            fw.begin_superstep("vertex_map")

    def test_barrier_without_begin_rejected(self, fw):
        with pytest.raises(RuntimeError):
            fw.barrier()

    def test_abort_allows_new_superstep(self, fw):
        fw.begin_superstep("vertex_map")
        fw.abort_superstep()
        fw.begin_superstep("vertex_map")  # should not raise
        fw.barrier()

    def test_unchanged_value_not_committed(self, fw):
        fw.begin_superstep("vertex_map")
        commit(fw, {0: {"x": 0}})  # same as current
        assert fw._unsynced == {}  # no change, so no sync debt either

    def test_charge_ops(self, fw):
        fw.begin_superstep("vertex_map")
        fw.charge_ops(0, 3)
        fw.charge_ops(1, 2)
        fw.barrier()
        assert fw.metrics.records[0].worker_ops == [3, 2]

    def test_get_returns_row(self, fw):
        assert fw.get(2) == {"x": 0, "y": 0}


class TestSyncAccounting:
    def test_no_sync_for_noncritical(self, fw):
        fw.begin_superstep("vertex_map")
        commit(fw, {1: {"x": 9}})
        rec = fw.metrics.records[0]
        assert rec.sync_messages == 0

    def test_sync_for_critical_to_necessary_mirrors(self, fw):
        fw.begin_superstep("edge_map_sparse")
        fw.mark_critical(["x"])
        commit(fw, {1: {"x": 9}})
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
        commit(fw, {0: {"x": 1}}, broadcast_all=True)
        assert fw.metrics.records[0].sync_messages == 3  # all other workers

    def test_sync_all_when_critical_only_disabled(self):
        g = Graph.from_edges([(0, 1)])
        fw = Flashware(g, num_workers=2, options=FlashwareOptions(sync_critical_only=False))
        fw.state.add_property("x", 0)
        fw.begin_superstep("vertex_map")
        commit(fw, {0: {"x": 1}})
        assert fw.metrics.records[0].sync_messages == 1

    def test_reduce_round_counts_remote_contributors(self, fw):
        fw.begin_superstep("edge_map_sparse")
        commit(fw, {0: {"x": 3}}, {0: {0, 1}})
        rec = fw.metrics.records[0]
        assert rec.reduce_messages == 1  # only worker 1 is remote for vertex 0

    def test_local_contributor_free(self, fw):
        fw.begin_superstep("edge_map_sparse")
        commit(fw, {0: {"x": 3}}, {0: {0}})
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
        commit(fw, {0: {"x": 1}, 2: {"x": 2}})
        assert fw.metrics.records[0].sync_messages == 0
        # Promotion pays exactly those vertices' mirror syncs.
        fw.begin_superstep("edge_map_dense")
        fw.mark_critical(["x"])
        fw.barrier()
        rec = fw.metrics.records[1]
        # Vertices 0 and 2 (worker 0) each have one mirror on worker 1.
        assert rec.sync_messages == 2
        assert rec.sync_values == 2

    @pytest.mark.parametrize("kind", ["array", "object"])
    def test_late_promotion_debt_columnar_twin(self, kind):
        """The same changes committed as a columnar kernel hands them
        over and as the interpreted kernels do, then promoted, charge the
        same, and a checkpoint -> restore in between preserves the
        debt."""
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
            commit(fw, {v: {"x": val} for v, val in updates.items()})

        def commit_columnar(fw, updates):
            vids = np.array(sorted(updates), dtype=np.int64)
            column = [updates[v] for v in vids.tolist()]
            fw.barrier(vids, {"x": np.array(column) if kind == "array" else column})

        charged = []
        for commit_as in (commit_interp, commit_columnar):
            fw = Flashware(g, num_workers=2)
            fw.state.add_property("x", default)
            assert isinstance(fw.state.column("x"), np.ndarray) == (kind == "array")
            fw.begin_superstep("vertex_map")
            commit_as(fw, changes)
            assert fw.metrics.records[0].sync_messages == 0
            snapshot = fw.checkpoint()
            # a later unsynced change (vertex 2 has a mirror) is rolled
            # back by the restore, debt included
            fw.begin_superstep("vertex_map")
            commit_as(fw, {2: late})
            fw.restore(snapshot)
            assert fw.state.get(2, "x") == default
            fw.begin_superstep("edge_map_dense")
            fw.mark_critical(["x"])
            fw.barrier()
            rec = fw.metrics.records[-1]
            charged.append((rec.sync_messages, rec.sync_values))
            assert [fw.state.get(v, "x") for v in ids.tolist()] == values
        assert charged == [expected, expected]

    def test_fresh_property_no_catchup(self, fw):
        fw.begin_superstep("edge_map_dense")
        fw.mark_critical(["x"])  # no unsynced changes exist
        fw.barrier()
        assert fw.metrics.records[0].sync_messages == 0

    def test_collection_payload_counted(self):
        g = Graph.from_edges([(0, 1)])
        fw = Flashware(g, num_workers=2)
        fw.state.add_property("bag", set())
        fw.begin_superstep("edge_map_sparse")
        fw.mark_critical(["bag"])
        commit(fw, {0: {"bag": {1, 2, 3}}})
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
    """The NaN==NaN rule applied to both update shapes (per-vertex values
    from the interpreted kernels, float arrays from the columnar ones)."""

    def test_barrier_nan_rewrite_not_synced(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        fw = Flashware(g, num_workers=2)
        fw.state.add_property("d", float("nan"))
        fw.mark_critical(["d"])
        fw.begin_superstep("vertex_map")
        commit(fw, {vid: {"d": float("nan")} for vid in range(4)})
        assert all(np.isnan(fw.state.column("d")))
        rec = fw.metrics.records[0]
        assert rec.sync_messages == 0 and rec.sync_values == 0

    def test_barrier_columnar_nan_mask(self):
        import math

        import numpy as np

        from repro import FlashEngine
        from repro.core.config import use_config

        with use_config(backend="vectorized"):
            eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2), (2, 3)]),
                              num_workers=2)
        fw = eng.flashware
        eng.add_property("d", float("nan"))
        assert fw.state.array("d") is not None  # the float-array fast path
        fw.mark_critical(["d"])
        ids = np.arange(4)
        fw.begin_superstep("vertex_map")
        fw.barrier(ids, {"d": np.full(4, np.nan)})
        rec = fw.metrics.records[-1]
        assert rec.sync_messages == 0 and rec.sync_values == 0
        # A genuine NaN -> value transition still registers.
        fw.begin_superstep("vertex_map")
        fw.barrier(ids, {"d": np.array([np.nan, 1.0, np.nan, np.nan])})
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


# ---------------------------------------------------------------------------
# The one barrier, case by case
# ---------------------------------------------------------------------------
INF, NAN = float("inf"), float("nan")


@dataclass(frozen=True)
class Case:
    """One barrier over per-vertex ``updates`` (as the interpreted kernels
    stage them) on a 4-vertex path.  ``charges`` holds each superstep's
    ``(sync_messages, sync_values, reduce_messages, reduce_values)``,
    ``values`` the committed ``repr`` per property and vertex, ``arrays``
    the properties still stored as NumPy arrays.  The expected numbers are
    those of committing vertex by vertex: ``values_equal`` change
    detection and one ``VertexState.set`` per changed value."""

    updates: Dict[int, Dict[str, Any]]
    charges: Tuple[Tuple[int, int, int, int], ...]
    values: Dict[str, Tuple[str, ...]]
    arrays: Tuple[str, ...] = ("x", "y")
    contributors: Optional[Dict[int, Set[int]]] = None
    critical: Tuple[str, ...] = ()
    props: Tuple[Tuple[str, Any], ...] = (("x", 0), ("y", 0))
    edges: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 2), (2, 3))
    workers: int = 2
    options: FlashwareOptions = field(default_factory=FlashwareOptions)
    broadcast_all: bool = False
    promote: Tuple[str, ...] = ()  # marked critical in a second superstep


ZEROS = ("0", "0", "0", "0")

BARRIER_CASES = {
    # -- change detection, sync scope, reduce round, debt, payloads
    "commit": Case({0: {"x": 5}}, ((0, 0, 0, 0),), {"x": ("5", "0", "0", "0"), "y": ZEROS}),
    "unchanged": Case({0: {"x": 0}}, ((0, 0, 0, 0),), {"x": ZEROS, "y": ZEROS}),
    "noncritical": Case({1: {"x": 9}}, ((0, 0, 0, 0),), {"x": ("0", "9", "0", "0"), "y": ZEROS}),
    "critical-necessary-mirrors": Case(
        {1: {"x": 9}}, ((1, 1, 0, 0),), {"x": ("0", "9", "0", "0"), "y": ZEROS},
        critical=("x",)),
    "broadcast-all": Case(
        {0: {"x": 1}}, ((3, 3, 0, 0),), {"x": ("1", "0", "0", "0"), "y": ZEROS},
        critical=("x",), workers=4, broadcast_all=True),
    "sync-all": Case(
        {0: {"x": 1}}, ((1, 1, 0, 0),), {"x": ("1", "0"), "y": ("0", "0")},
        edges=((0, 1),), options=FlashwareOptions(sync_critical_only=False)),
    "remote-contributor": Case(
        {0: {"x": 3}}, ((0, 0, 1, 1),), {"x": ("3", "0", "0", "0"), "y": ZEROS},
        contributors={0: {0, 1}}),
    "local-contributor": Case(
        {0: {"x": 3}}, ((0, 0, 0, 0),), {"x": ("3", "0", "0", "0"), "y": ZEROS},
        contributors={0: {0}}),
    "debt-then-promotion": Case(
        {0: {"x": 1}, 2: {"x": 2}}, ((0, 0, 0, 0), (2, 2, 0, 0)),
        {"x": ("1", "0", "2", "0"), "y": ZEROS}, promote=("x",)),
    "object-payload": Case(
        {0: {"bag": {1, 2, 3}}}, ((1, 3, 0, 0),), {"bag": ("{1, 2, 3}", "set()")},
        arrays=(), critical=("bag",), props=(("bag", set()),), edges=((0, 1),)),
    "nan-rewrite": Case(
        {v: {"d": NAN} for v in range(4)}, ((0, 0, 0, 0),), {"d": ("nan",) * 4},
        arrays=("d",), critical=("d",), props=(("d", NAN),)),
    "nan-to-value": Case(
        {0: {"d": NAN}, 1: {"d": 1.0}}, ((1, 1, 0, 0),), {"d": ("nan", "1.0", "nan", "nan")},
        arrays=("d",), critical=("d",), props=(("d", NAN),)),
    # -- a vertex staging only some of the superstep's properties
    "partial-staging-remote": Case(
        # the reduce round carries what each target staged: 3 + (1 + 1)
        {0: {"bag": {1, 2, 3}}, 2: {"x": 4, "bag": {5}}}, ((2, 4, 2, 5),),
        {"x": ("0", "0", "4", "0"), "bag": ("{1, 2, 3}", "set()", "{5}", "set()")},
        arrays=("x",), contributors={0: {0, 1}, 2: {0, 1}}, critical=("bag",),
        props=(("x", 0), ("bag", set()))),
    "partial-staging-mixed": Case(
        {0: {"x": 7}, 1: {"y": 8}, 3: {"x": 0, "y": 9}}, ((3, 3, 3, 4),),
        {"x": ("7", "0", "0", "0"), "y": ("0", "8", "0", "9")},
        contributors={0: {1}, 1: {0}, 3: {0, 1}}, critical=("x", "y")),
    "contributor-staged-nothing": Case(
        # vertex 3 has a remote contributor but staged nothing: uncharged
        {1: {"x": 2}}, ((0, 0, 1, 1),), {"x": ("0", "2", "0", "0"), "y": ZEROS},
        contributors={1: {0}, 3: {0}}),
    # -- writes that do not fit the int column: it demotes, never raises
    "float-into-int": Case(
        {0: {"x": 3}, 1: {"x": 2.5}, 2: {"x": 4}}, ((3, 3, 0, 0),),
        {"x": ("3", "2.5", "4", "0"), "y": ZEROS}, arrays=("y",), critical=("x",)),
    "inf-into-int": Case(
        {1: {"x": INF}}, ((1, 1, 0, 0),), {"x": ("0", "inf", "0", "0"), "y": ZEROS},
        arrays=("y",), critical=("x",)),
    "bigint-into-int": Case(
        {1: {"x": 2**70}}, ((1, 1, 0, 0),), {"x": ("0", repr(2**70), "0", "0"), "y": ZEROS},
        arrays=("y",), critical=("x",)),
    "bool-into-int": Case(
        # False == 0 is no change; True != 0 is, and demotes the column
        {1: {"x": True}, 2: {"x": False}}, ((1, 1, 0, 0),),
        {"x": ("0", "True", "0", "0"), "y": ZEROS}, arrays=("y",), critical=("x",)),
    "equal-float-into-int": Case(
        {1: {"x": 0.0}, 2: {"x": 5.0}}, ((1, 1, 0, 0),),
        {"x": ("0", "0", "5.0", "0"), "y": ZEROS}, arrays=("y",), critical=("x",)),
    "int-into-float": Case(
        # an exact int widens into the float column
        {1: {"d": 3}}, ((1, 1, 0, 0),), {"d": ("0.5", "3.0", "0.5", "0.5")},
        arrays=("d",), critical=("d",), props=(("d", 0.5),)),
    "int-beyond-floats-into-float": Case(
        {1: {"d": 2**1100}}, ((1, 1, 0, 0),), {"d": ("0.5", repr(2**1100), "0.5", "0.5")},
        arrays=(), critical=("d",), props=(("d", 0.5),)),
}


@pytest.mark.parametrize("case", BARRIER_CASES.values(), ids=list(BARRIER_CASES))
def test_one_barrier(case):
    g = Graph.from_edges(list(case.edges))
    fw = Flashware(g, num_workers=case.workers, options=case.options)
    for name, default in case.props:
        fw.state.add_property(name, default)
    fw.mark_critical(case.critical)
    fw.begin_superstep("edge_map_sparse")
    commit(fw, case.updates, case.contributors, broadcast_all=case.broadcast_all)
    if case.promote:
        fw.begin_superstep("edge_map_dense")
        fw.mark_critical(case.promote)
        fw.barrier()
    assert tuple(
        (r.sync_messages, r.sync_values, r.reduce_messages, r.reduce_values)
        for r in fw.metrics.records
    ) == case.charges
    assert {
        name: tuple(repr(fw.state.get(v, name)) for v in range(g.num_vertices))
        for name, _ in case.props
    } == case.values
    assert tuple(
        name for name, _ in case.props if fw.state.array(name) is not None
    ) == case.arrays


def test_one_state_one_barrier():
    """Structural guard: one commit path and one state class.  The
    ``barrier_columnar`` alias exists for instrumentation by name only;
    nothing in the package calls it."""
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    sources = {
        str(path.relative_to(root)): path.read_text() for path in root.rglob("*.py")
    }
    assert [p for p, text in sources.items() if "def barrier" in text] == [
        "runtime/flashware.py"
    ]
    assert sources["runtime/flashware.py"].count("def barrier") == 1
    for gone in ("typed_state", "_needs_commit_log", "TypedVertexState", "barrier_columnar("):
        assert [p for p, text in sources.items() if gone in text] == [], gone
    assert not (root / "runtime" / "vectorized" / "state.py").exists()
