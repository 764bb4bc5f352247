"""Multi-source frontier kernels: k merged single-source queries in one
superstep run.

The serving layer's key optimization (ROADMAP "graph-as-a-service") is
to merge k compatible single-source queries (BFS, SSSP, PPR) arriving
inside one batching window into a *single* FLASH run whose frontier is
the union of the per-query frontiers.  The paper's EDGEMAP already
operates over arbitrary vertex subsets, so nothing in the engine
changes: each vertex carries a dict-valued property mapping
``query index -> value``, the merged frontier holds every vertex that
improved for *any* query, and one edge scan advances all queries that
currently pass through the scanned vertex.

Correctness (asserted by ``tests/test_multisource_parity.py``):

* **BFS** — a vertex first receives a finite value for query ``q`` in
  the superstep equal to its hop distance from ``q``'s source, exactly
  as in the independent run; values are integers, so parity is exact.
* **SSSP** — relaxation is monotone and ``min``-folded; the fixpoint is
  the minimum over per-path weight sums, and each path's sum is
  accumulated source-outward in the same order as the independent run,
  so parity is exact even in floating point.
* **PPR** — every query's arithmetic is independent, iteration count is
  fixed, and the dense pull kernel folds in-sources in the same sorted
  order as a single-query run, so the float operation sequence per
  query is identical — parity is bitwise.

The win: per-edge interpreter overhead (view construction, charging,
function dispatch) is paid once per scanned edge instead of once per
(edge, query); queries whose frontiers overlap — the common case on
small-diameter graphs — share those scans.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.algorithms.common import INF, local_dict
from repro.core.engine import FlashEngine
from repro.core.primitives import ctrue
from repro.errors import InvalidRequestError

#: Scratch property names (dropped again before the functions return, so
#: pooled serving engines stay clean).
_DIS = "msdis"
_RANK = "msrank"
_ACC = "msacc"


def as_int(value: Any, what: str) -> int:
    """``value`` as an int.  Integers, integral floats and integer strings
    pass; bools and anything ``int()`` would truncate are rejected."""
    if not isinstance(value, bool):
        try:
            out = int(value)
            if isinstance(value, str) or out == value:
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidRequestError(f"{what} must be an integer, got {value!r}")


def _check_sources(engine: FlashEngine, sources: Sequence[int]) -> List[int]:
    n = engine.graph.num_vertices
    out = []
    for s in sources:
        s = as_int(s, "source")
        if not 0 <= s < n:
            raise InvalidRequestError(f"source {s} out of range (|V|={n})")
        out.append(s)
    if not out:
        raise InvalidRequestError("need at least one source")
    return out


# ---------------------------------------------------------------------------
# Multi-source BFS
# ---------------------------------------------------------------------------
def _bfs_improves(s, d):
    ddis = d.msdis
    for q, dist in s.msdis.items():
        if dist + 1 < ddis.get(q, INF):
            return True
    return False


def _bfs_update(s, d):
    tgt = local_dict(d, _DIS)
    for q, dist in s.msdis.items():
        nd = dist + 1
        if nd < tgt.get(q, INF):
            tgt[q] = nd
    return d


def _min_reduce(t, d):
    acc = local_dict(d, _DIS)
    for q, dist in t.msdis.items():
        if dist < acc.get(q, INF):
            acc[q] = dist
    return d


def multi_bfs(engine: FlashEngine, sources: Sequence[int]) -> List[List[float]]:
    """Hop distances from each source, one full column per requested
    source (duplicates allowed — they share one merged query)."""
    sources = _check_sources(engine, sources)
    distinct = sorted(set(sources))
    qid = {s: i for i, s in enumerate(distinct)}
    n = engine.graph.num_vertices
    engine.add_property(_DIS, factory=dict)
    try:
        def init(v):
            local_dict(v, _DIS)[qid[v.id]] = 0
            return v

        U = engine.vertex_map(engine.subset(distinct), None, init, label="mbfs:init")
        while engine.size(U) != 0:
            U = engine.edge_map(
                U, engine.E, _bfs_improves, _bfs_update, ctrue, _min_reduce,
                label="mbfs:step",
            )
        column = engine.flashware.state.column(_DIS)
        return [
            [column[v].get(qid[s], INF) for v in range(n)] for s in sources
        ]
    finally:
        engine.drop_property(_DIS)


# ---------------------------------------------------------------------------
# Multi-source SSSP (frontier Bellman-Ford)
# ---------------------------------------------------------------------------
def multi_sssp(engine: FlashEngine, sources: Sequence[int]) -> List[List[float]]:
    """Shortest-path distances from each source (weights default to 1.0
    on unweighted graphs, as in :func:`repro.algorithms.sssp`)."""
    sources = _check_sources(engine, sources)
    distinct = sorted(set(sources))
    qid = {s: i for i, s in enumerate(distinct)}
    graph = engine.graph
    n = graph.num_vertices
    engine.add_property(_DIS, factory=dict)

    def improves(s, d):
        w = graph.weight(s.id, d.id)
        ddis = d.msdis
        for q, dist in s.msdis.items():
            if dist + w < ddis.get(q, INF):
                return True
        return False

    def relax(s, d):
        w = graph.weight(s.id, d.id)
        tgt = local_dict(d, _DIS)
        for q, dist in s.msdis.items():
            nd = dist + w
            if nd < tgt.get(q, INF):
                tgt[q] = nd
        return d

    try:
        def init(v):
            local_dict(v, _DIS)[qid[v.id]] = 0.0
            return v

        U = engine.vertex_map(engine.subset(distinct), None, init, label="msssp:init")
        while engine.size(U) != 0:
            U = engine.edge_map(
                U, engine.E, improves, relax, ctrue, _min_reduce,
                label="msssp:relax",
            )
        column = engine.flashware.state.column(_DIS)
        return [
            [column[v].get(qid[s], INF) for v in range(n)] for s in sources
        ]
    finally:
        engine.drop_property(_DIS)


# ---------------------------------------------------------------------------
# Multi-query personalized PageRank
# ---------------------------------------------------------------------------
def multi_ppr(
    engine: FlashEngine,
    seed_sets: Sequence[Iterable[int]],
    damping: float = 0.85,
    iters: int = 10,
) -> List[List[float]]:
    """Fixed-iteration PPR for k seed sets in one run; each returned
    column is normalized to sum to 1, matching
    :func:`repro.algorithms.personalized_pagerank` with ``tolerance=0``
    and ``max_iters=iters`` bit-for-bit."""
    n = engine.graph.num_vertices
    restarts: List[Dict[int, float]] = []
    for seeds in seed_sets:
        seed_list = _check_sources(engine, list(seeds))
        distinct = set(seed_list)
        restarts.append({s: 1.0 / len(distinct) for s in distinct})
    k = len(restarts)
    if k == 0:
        raise InvalidRequestError("need at least one PPR query")

    engine.add_property(_RANK, factory=dict)
    engine.add_property(_ACC, factory=dict)

    def init(v):
        rank = local_dict(v, _RANK)
        for q in range(k):
            rank[q] = 1.0 / max(n, 1)
        return v

    def scatter(s, d):
        acc = local_dict(d, _ACC)
        out_deg = s.out_deg
        for q, r in s.msrank.items():
            share = r / out_deg if out_deg else 0.0
            acc[q] = acc.get(q, 0.0) + share
        return d

    def r_sum(t, d):
        acc = local_dict(d, _ACC)
        for q, val in t.msacc.items():
            acc[q] = acc.get(q, 0.0) + val
        return d

    def apply(v):
        acc = v.msacc
        rank = local_dict(v, _RANK)
        for q in range(k):
            rank[q] = (1.0 - damping) * restarts[q].get(v.id, 0.0) \
                + damping * acc.get(q, 0.0)
        local_dict(v, _ACC).clear()
        return v

    try:
        engine.vertex_map(engine.V, None, init, label="mppr:init")
        for _ in range(iters):
            engine.edge_map(
                engine.V, engine.E, ctrue, scatter, ctrue, r_sum,
                label="mppr:scatter",
            )
            engine.vertex_map(engine.V, None, apply, label="mppr:apply")
        column = engine.flashware.state.column(_RANK)
        results: List[List[float]] = []
        for q in range(k):
            ranks = [column[v].get(q, 0.0) for v in range(n)]
            total = sum(ranks)
            if total > 0:
                ranks = [r / total for r in ranks]
            results.append(ranks)
        return results
    finally:
        engine.drop_property(_RANK)
        engine.drop_property(_ACC)


def top_k(ranks: Sequence[float], k: int) -> List[Tuple[int, float]]:
    """The ``k`` highest-scoring vertices as ``(vertex, score)`` pairs,
    ties broken by vertex id (deterministic)."""
    order = sorted(range(len(ranks)), key=lambda v: (-ranks[v], v))
    return [(v, ranks[v]) for v in order[: max(int(k), 0)]]
