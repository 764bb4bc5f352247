"""The interpreter seam, without processes.

``core/interp.py`` is the one implementation of Algorithms 1, 5 and 6;
an mp worker is that code pointed at a partition.  This suite holds the
seam itself: running ``interp`` once against a ``FlashEngine`` must
equal running it partition by partition against in-process
``WorkerSession`` proxies and merging through ``DistSession`` — the
session's own ``run_*`` methods over a pool stand-in that calls the
worker's request handler directly, so payload shipping, the wire edge
modes, temp routing and the reply merge are all the real code and only
the pipe is missing.
"""

import numpy as np
import pytest

from repro.core import interp
from repro.core.edgeset import join
from repro.core.engine import FlashEngine
from repro.graph.graph import Graph
from repro.runtime.distributed import worker as worker_mod
from repro.runtime.distributed.executor import DistSession

N = 36


def _graph(directed: bool) -> Graph:
    rng = np.random.default_rng(7)
    edges = set()
    while len(edges) < 120:
        s, d = (int(x) for x in rng.integers(0, N, size=2))
        if s != d and (directed or (d, s) not in edges):
            edges.add((s, d))
    return Graph(N, sorted(edges), directed=directed)


class InProcessPool:
    """What ``DistSession`` needs of a ``WorkerPool``, served by
    ``WorkerSession`` objects living in this process."""

    bytes_sent = bytes_recv = messages_sent = messages_recv = 0

    def __init__(self, nworkers: int):
        self.nworkers = nworkers
        self.sessions = {}
        self.workers = {}  # (rank, sid) -> WorkerSession
        self._graph = None

    def acquire_graph(self, graph) -> int:
        self._graph = graph
        return 1

    def request_many(self, items, tracer=None):
        return [self._serve(*item) for item in items]

    def broadcast(self, op, sid, payload, tracer=None):
        return self.request_many(
            [(rank, op, sid, payload) for rank in range(self.nworkers)]
        )

    def _serve(self, rank, op, sid, payload):
        if op == "open":
            self.workers[rank, sid] = worker_mod.WorkerSession(
                rank, payload["nworkers"], self._graph, None,
                payload["partition_strategy"], payload["sync_critical_only"],
            )
            return None
        session = self.workers[rank, sid]
        if op in worker_mod._KERNELS:
            return worker_mod._run_kernel(session, op, payload)
        assert op in worker_mod._SESSION_OPS, op
        return getattr(session, op)(*payload)


class Seam:
    """One inline engine plus its partitioned twin over the same state."""

    def __init__(self, directed: bool, nworkers: int):
        self.engine = FlashEngine(
            _graph(directed), num_workers=nworkers, auto_analyze=False
        )
        self.engine.add_property("val", 0)
        self.engine.add_property("hits", 0)
        self.engine.add_property("seen", ())
        fw = self.engine.flashware
        for vid in range(N):
            fw.state.set(vid, "val", (vid * 7) % 11)
        self.pool = InProcessPool(nworkers)
        self.session = DistSession(self.pool, fw, "hash")
        for name in fw.state.property_names:
            self.session.ship_column(name, fw.state.column(name))

    def both(self, kind, runner_call):
        """``runner_call(runner)`` against the inline loops and against
        the session; each returns ``(results, per-owner ops)``."""
        fw = self.engine.flashware
        observed = []
        for runner in (interp, self.session):
            rec = fw.begin_superstep(kind)
            try:
                results = runner_call(runner)
                observed.append((results, list(rec.worker_ops)))
            finally:
                fw.abort_superstep()
        return observed


@pytest.fixture(
    params=[(d, k) for d in (False, True) for k in (2, 4)],
    ids=lambda p: f"{'directed' if p[0] else 'undirected'}-{p[1]}w",
)
def seam(request):
    return Seam(*request.param)


def _edge_sets(engine):
    # ``E`` travels as ("csr",); join(E, E) is constructed, so its
    # adjacency travels as ("mat", ...).
    return {"E": engine.E, "join(E,E)": join(engine.E, engine.E)}


def test_vertex_map(seam):
    engine = seam.engine

    def F(v):
        return v.val % 3 != 0

    def M(v):
        # Charges a vertex another partition masters: the worker's ops
        # list is per owner, not per worker.
        engine.charge((v.id + 1) % N, 2)
        v.hits = v.val + v.out_deg
        return v

    subset = engine.V
    inline, split = seam.both(
        "vertex_map", lambda run: run.run_vertex_map(engine, subset, F, M)
    )
    assert split == inline
    (out, updates), ops = inline
    assert out and updates and sum(ops) > len(out)


@pytest.mark.parametrize("edges_name", ["E", "join(E,E)"])
def test_dense(seam, edges_name):
    engine = seam.engine
    edges = _edge_sets(engine)[edges_name]

    def F(s, d):
        return s.val != d.val

    def M(s, d):
        d.hits = d.hits + 1
        d.seen = d.seen + (s.id,)
        return d

    def C(d):
        return d.hits < 2  # fails part-way through a row: the break

    subset = engine.subset(v for v in range(N) if v % 4 != 1)
    inline, split = seam.both(
        "edge_map_dense",
        lambda run: run.run_edge_map_dense(engine, subset, edges, F, M, C),
    )
    assert split == inline
    (out, updates), _ops = inline
    assert out and any(u["hits"] == 2 for u in updates.values())


@pytest.mark.parametrize("edges_name", ["E", "join(E,E)"])
def test_sparse_fold_order(seam, edges_name):
    """``R`` concatenates, so the folded value *is* the fold order: it
    must be the single-process one (ascending source, arc order within a
    source) although the temps reach a target's master producer by
    producer."""
    engine = seam.engine
    edges = _edge_sets(engine)[edges_name]

    def F(s, d):
        return (s.id + d.id) % 5 != 0

    def M(s, d):
        d.seen = (s.id,)
        return d

    def C(d):
        return d.val != 3

    def R(t, d):
        d.seen = d.seen + t.seen
        if d.hits == 0:
            d.hits = t.seen[0] + 1  # keep first
        return d

    subset = engine.subset(v for v in range(N) if v % 3 != 2)
    inline, split = seam.both(
        "edge_map_sparse",
        lambda run: run.run_edge_map_sparse(engine, subset, edges, F, M, C, R),
    )
    assert split == inline
    (out, updates, contributors), _ops = inline
    assert sorted(updates) == out == sorted(contributors)
    # The scenario bites: some target folds temps from several
    # partitions, in ascending source order with the first one kept.
    assert any(len(parts) > 1 for parts in contributors.values())
    for staged in updates.values():
        assert list(staged["seen"]) == sorted(staged["seen"])
        assert staged["hits"] == staged["seen"][0] + 1


def test_worker_handlers_hold_no_loops():
    """Structural guard: the per-vertex / per-edge loops and the
    ``isinstance(result, WorkingView)`` dance live in core/interp.py
    only."""
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    hits = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "isinstance(result, WorkingView)" in path.read_text()
    )
    assert hits == ["core/interp.py"]
