"""Minimum Spanning Forest (paper Algorithm 21 — distributed Kruskal).

Each worker runs Kruskal's algorithm over the edges whose source it
masters; the surviving local forests are gathered with the ``REDUCE``
auxiliary and a final Kruskal pass over the (much smaller) union yields
the global forest.  Correct because an edge outside a subgraph's MSF is
never in the whole graph's MSF (cycle property).

Uses the pre-defined DSU helpers; the edge scan happens through direct
``F``/``M`` calls rather than EDGEMAP because Kruskal requires a global
weight order (the paper makes the same concession, §B-J).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.core.dsu import DSU
from repro.core.engine import FlashEngine
from repro.graph.graph import Graph

WeightedEdge = Tuple[int, int, float]


def _kruskal(num_vertices: int, edges: List[WeightedEdge]) -> List[WeightedEdge]:
    """The surviving forest edges of a Kruskal pass."""
    forest: List[WeightedEdge] = []
    dsu = DSU(num_vertices)
    for s, d, w in sorted(edges, key=lambda e: (e[2], e[0], e[1])):
        if dsu.union(s, d):
            forest.append((s, d, w))
    return forest


def msf(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
) -> AlgorithmResult:
    """The minimum spanning forest: ``values`` is the edge list,
    ``extra['total_weight']`` its weight."""
    eng = make_engine(graph_or_engine, num_workers)
    graph = eng.graph
    fw = eng.flashware
    n = graph.num_vertices

    # Local phase: each worker Kruskals the edges it masters.  Charged as
    # one superstep whose per-worker work is its edge load.
    rec = fw.begin_superstep("local_kruskal", "msf:local")
    local_edges: Dict[int, List[WeightedEdge]] = {w: [] for w in range(eng.num_workers)}
    for s, d, w in graph.weighted_edges():
        if s == d:
            continue
        worker = fw.partition.owner_of(s)
        local_edges[worker].append((s, d, w))
        fw.charge_ops(worker, 1)
    local_forests: Dict[int, List[WeightedEdge]] = {}
    for worker, edges in local_edges.items():
        local_forests[worker] = _kruskal(n, edges)
        fw.charge_ops(worker, len(edges))
    fw.barrier()

    # REDUCE the local forests to one worker (paper line 25), keyed by a
    # vertex each worker masters so the gather is charged correctly.
    items_per_vertex: Dict[int, List[WeightedEdge]] = {}
    for worker, forest in local_forests.items():
        members = fw.partition.members(worker)
        if len(members):
            items_per_vertex[int(members[0])] = forest
    candidates = eng.collect(items_per_vertex, label="msf:reduce")

    # Global phase: final Kruskal over the surviving candidates.
    rec = fw.begin_superstep("global_kruskal", "msf:global")
    fw.charge_ops(0, len(candidates))
    forest = _kruskal(n, candidates)
    fw.barrier()

    total = sum(w for _, _, w in forest)
    return AlgorithmResult(
        "msf", eng, forest, iterations=2, extra={"total_weight": total, "num_edges": len(forest)}
    )
