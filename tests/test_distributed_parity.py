"""Parity suite for the multiprocess distributed executor.

Every Table IV application must produce bit-identical vertex states and
bit-identical charged metrics under ``executor="mp"`` (real worker
processes with real mirror-synchronization traffic) as under the default
inline simulation — and the *real* per-superstep message counts must
match what the simulation charges.

The suite runs each app at 1 (inline baseline), 2 and 4 workers; worker
pools are process-global and reused across tests, so the spawn cost is
paid once per worker count.
"""

import functools
import pickle

import pytest

from repro import load_dataset
from repro.core.engine import FlashEngine
from repro.errors import (
    DistributedShipError,
    FlashUsageError,
    StaleReadError,
    WorkerCrashError,
)
from repro.graph.generators import random_graph
from repro.graph.partition import (
    PARTITION_STRATEGIES,
    compare_partitioners,
    partition_graph,
    partition_owners,
    partition_quality,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.distributed.shipping import closure_writes
from repro.suite import APPS, prepare_graph, run_app

SCALE = 0.05  # |V|=75 on the OR dataset — small enough for 14 apps x 3 sizes


@functools.lru_cache(maxsize=None)
def _graph(app: str):
    graph = load_dataset("OR", scale=SCALE, directed=(app == "scc"))
    return prepare_graph(app, graph)


@functools.lru_cache(maxsize=None)
def _inline(app: str, workers: int):
    return run_app("flash", app, _graph(app), num_workers=workers)


@functools.lru_cache(maxsize=None)
def _inline_values_blob(app: str, workers: int) -> bytes:
    return pickle.dumps(_inline(app, workers).values)


# ---------------------------------------------------------------------------
# The tentpole claim: mp == inline, and real traffic == charged traffic.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("app", APPS)
def test_mp_parity(app, workers):
    inline = _inline(app, workers)
    mp = run_app("flash", app, _graph(app), num_workers=workers, executor="mp")

    # Bit-identical results...
    assert pickle.dumps(mp.values) == pickle.dumps(inline.values)
    # ...and bit-identical charged accounting: the drivers must have taken
    # the exact same path through the exact same supersteps.
    assert mp.metrics.summary() == inline.metrics.summary()

    dist = mp.extra["distributed"]
    assert dist["workers"] == workers
    assert dist["per_superstep"], "mp run recorded no supersteps"
    for rec in dist["per_superstep"]:
        # Real mirror-sync messages must equal the simulation's charge,
        # superstep by superstep.
        assert rec["sync_entries"] == rec["charged_sync_messages"], rec
        if rec["kind"] == "edge_map_sparse":
            # Push-mode reduces really travel producer -> master; collect's
            # charged gather has no physical counterpart, so only sparse
            # supersteps are compared.
            assert rec["reduce_entries"] == rec["charged_reduce_messages"], rec


@pytest.mark.parametrize("app", APPS)
def test_inline_values_worker_count_invariant(app):
    """The 1-worker row of the parity matrix: results cannot depend on
    the partitioning, so inline 1-worker == inline 4-worker values."""
    assert _inline_values_blob(app, 1) == _inline_values_blob(app, 4)


@pytest.mark.parametrize("app", ["cc", "bfs", "kc", "msf"])
def test_mp_matches_vectorized(app):
    """Cross-backend triangle: mp(interp) == inline(interp) == vectorized.

    Value equality (not pickle bytes): the vectorized backend may hand
    back NumPy scalars where the interpreter has Python ints."""
    vec = run_app("flash", app, _graph(app), num_workers=4, backend="vectorized")
    mp = run_app("flash", app, _graph(app), num_workers=4, executor="mp")
    assert list(mp.values) == list(vec.values)


def test_cluster_spec_drives_workers():
    run = run_app("flash", "cc", _graph("cc"), executor="mp",
                  cluster=ClusterSpec(nodes=2, cores_per_node=8))
    assert run.metrics.num_workers == 2
    assert run.extra["distributed"]["workers"] == 2


def test_mp_with_recovery_matches_inline():
    """Fault injection + rollback recovery on real workers: the recovered
    run must still match the fault-free inline run value-for-value."""
    graph = _graph("cc")
    clean = run_app("flash", "cc", graph, num_workers=2)
    recovered = run_app("flash", "cc", graph, num_workers=2,
                        executor="mp", faults="2")
    assert recovered.extra["recovery"]["failures"] >= 1
    assert pickle.dumps(recovered.values) == pickle.dumps(clean.values)
    dist = recovered.extra["distributed"]
    for rec in dist["per_superstep"]:
        assert rec["sync_entries"] == rec["charged_sync_messages"], rec


def test_dist_summary_counts_only_its_own_session():
    """Two engines back to back on the shared pool: each summary's
    traffic is what the pool moved between that session's open and
    close, not the pool's lifetime total."""
    from repro.algorithms import bfs
    from repro.runtime.distributed import get_pool

    graph = _graph("bfs")
    pool = get_pool(2)
    counters = ("bytes_sent", "bytes_recv", "messages_sent", "messages_recv")
    summaries = []
    for _ in range(2):
        before = {name: getattr(pool, name) for name in counters}
        with FlashEngine(graph, num_workers=2, executor="mp") as engine:
            bfs(engine, root=0)
        summary = engine.dist_summary()
        for name in counters:
            assert summary[name] == getattr(pool, name) - before[name], name
        summaries.append(summary)
    second = summaries[1]
    assert second["bytes_sent"] < pool.bytes_sent  # the pool total includes run 1
    # its own supersteps plus the traffic outside them (open, property
    # set-up, close); an identical run sends the same number of messages
    step_bytes = sum(rec["bytes_sent"] for rec in second["per_superstep"])
    assert 0 < step_bytes < second["bytes_sent"]
    assert second["messages_sent"] == summaries[0]["messages_sent"]


# ---------------------------------------------------------------------------
# Configuration errors: fail fast, mention the fix.
# ---------------------------------------------------------------------------
def test_mp_single_worker_rejected():
    with pytest.raises(FlashUsageError, match="nodes=1"):
        FlashEngine(random_graph(10, 20, seed=0), num_workers=1, executor="mp")


def test_mp_single_node_cluster_rejected():
    with pytest.raises(FlashUsageError, match="nodes=1"):
        FlashEngine(random_graph(10, 20, seed=0),
                    num_workers=ClusterSpec(nodes=1).num_workers, executor="mp")


def test_mp_vectorized_backend_rejected():
    with pytest.raises(FlashUsageError, match="interp"):
        FlashEngine(random_graph(10, 20, seed=0), num_workers=2,
                    executor="mp", backend="vectorized")


def test_unknown_executor_rejected():
    with pytest.raises(FlashUsageError, match="executor"):
        FlashEngine(random_graph(10, 20, seed=0), executor="threads")


def test_suite_rejects_mp_for_baselines():
    with pytest.raises(ValueError, match="flash"):
        run_app("pregel", "cc", _graph("cc"), executor="mp")


def test_suite_rejects_mp_with_vectorized_backend():
    with pytest.raises(FlashUsageError, match="interp"):
        run_app("flash", "cc", _graph("cc"), executor="mp",
                backend="vectorized")


# ---------------------------------------------------------------------------
# Function shipping: nonlocal-writing closures cannot be distributed.
# ---------------------------------------------------------------------------
def _make_counting_kernel():
    count = 0

    def F(v):
        nonlocal count
        count += 1
        return True

    return F


def test_closure_writes_detects_nonlocal_mutation():
    assert closure_writes(_make_counting_kernel()) == ["count"]

    def reads_only(v, _bound=_make_counting_kernel()):
        return _bound is not None

    assert closure_writes(reads_only) == []


def test_mp_rejects_nonlocal_writing_kernel():
    engine = FlashEngine(random_graph(12, 36, seed=3), num_workers=2,
                         executor="mp")
    try:
        with pytest.raises(DistributedShipError, match="nonlocal"):
            engine.vertex_map(engine.V, _make_counting_kernel())
        # The session survives the rejected superstep: a clean kernel
        # still runs afterwards.
        engine.add_property("x", 0)
        out = engine.vertex_map(engine.V, None, lambda v: setattr(v, "x", v.id))
        assert out.size() == 12
        assert engine.values("x") == list(range(12))
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Partitioner comparison (satellite of the distributed work).
# ---------------------------------------------------------------------------
def test_partition_owners_strategies_and_alias():
    g = random_graph(40, 160, seed=7)
    for strategy in PARTITION_STRATEGIES:
        owners = partition_owners(g, 4, strategy)
        assert len(owners) == 40
        assert set(owners.tolist()) <= set(range(4))
    # "range" is an alias for "chunk".
    assert (partition_owners(g, 4, "range") == partition_owners(g, 4, "chunk")).all()
    with pytest.raises(ValueError, match="strategy"):
        partition_owners(g, 4, "metis")


def test_partition_owners_match_partition_map():
    g = random_graph(30, 90, seed=11)
    for strategy in PARTITION_STRATEGIES:
        pm = partition_graph(g, 3, strategy)
        assert (pm.owners() == partition_owners(g, 3, strategy)).all()


def test_partition_quality_measures():
    g = random_graph(60, 300, seed=5)
    pm = partition_graph(g, 4, "hash")
    q = partition_quality(pm, "hash")
    assert q.cut_arcs == pm.cut_arcs()
    assert 0.0 <= q.cut_ratio <= 1.0
    assert q.replication_factor >= 1.0
    assert q.vertex_balance >= 1.0 - 1e-9
    assert q.edge_balance >= 1.0 - 1e-9
    assert q.as_dict()["strategy"] == "hash"


def test_compare_partitioners_covers_requested_strategies():
    g = load_dataset("OR", scale=SCALE)
    qualities = compare_partitioners(g, 4)
    assert [q.strategy for q in qualities] == ["hash", "range", "degree"]
    for q in qualities:
        assert q.num_partitions == 4
        assert q.cut_arcs > 0  # a 75-vertex social graph always cuts


def test_chunk_beats_hash_on_id_localized_graph():
    """The quality comparison must be able to *show* something: on a
    path graph (perfect id locality) range partitioning cuts O(m)
    arcs while hash cuts almost everything."""
    from repro.graph.graph import Graph

    n = 64
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    hash_q, range_q = compare_partitioners(g, 4, ("hash", "range"))
    assert range_q.cut_arcs < hash_q.cut_arcs
    assert range_q.cut_arcs == 6  # 3 boundaries x 2 arc directions


# ---------------------------------------------------------------------------
# Staleness guard (unit level — no processes needed).
# ---------------------------------------------------------------------------
def test_guarded_state_flags_stale_remote_reads():
    from repro.runtime.distributed.worker import GuardedState
    from repro.runtime.state import VertexState

    class _Session:
        rank = 0
        owner = [0, 1]  # vertex 1 is remote
        staled = {"level"}
        critical = {"dist"}

    state = VertexState(2)
    state.add_property("level", default=3)
    state.add_property("dist", default=1)
    guarded = GuardedState(state, _Session())

    assert guarded.get(0, "level") == 3  # owned: always fresh
    assert guarded.get(1, "dist") == 1  # critical: synced every barrier
    with pytest.raises(StaleReadError, match="stale"):
        guarded.get(1, "level")


def test_error_types_importable_and_ordered():
    from repro.errors import DistributedError, ReproError

    assert issubclass(DistributedShipError, DistributedError)
    assert issubclass(StaleReadError, DistributedError)
    assert issubclass(WorkerCrashError, DistributedError)
    assert issubclass(DistributedError, ReproError)
