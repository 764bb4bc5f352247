"""K-truss decomposition — triangle-support peeling, the edge analogue
of k-core (a mining-family application beyond the paper's evaluated 14,
in the spirit of its 72-algorithm catalog).

The trussness of an edge is the largest k such that the edge survives
repeatedly deleting every edge contained in fewer than k-2 triangles of
the remaining graph.  Expressed with TC-style neighbor sets plus an
iterative per-k peeling loop over the surviving edge set.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple, Union

from repro.algorithms.common import AlgorithmResult, local_set, make_engine
from repro.core.engine import FlashEngine
from repro.core.primitives import ctrue
from repro.graph.graph import Graph

Edge = Tuple[int, int]


def _support(eng, alive: Set[Edge], nbrs) -> Dict[Edge, int]:
    """Triangles through each surviving edge, restricted to surviving
    edges (charged to the edge's lower endpoint's worker)."""
    support = {}
    for s, d in alive:
        eng.charge(s, max(min(len(nbrs[s]), len(nbrs[d])), 1))
        common = nbrs[s] & nbrs[d]
        support[(s, d)] = sum(
            1
            for w in common
            if (min(s, w), max(s, w)) in alive and (min(d, w), max(d, w)) in alive
        )
    return support


def ktruss(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
) -> AlgorithmResult:
    """Trussness per edge: ``values`` maps ``(u, v)`` (u < v) to its k."""
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("nbrs", factory=set)

    def collect(s, d):
        local_set(d, "nbrs").add(s.id)
        return d

    def merge(t, d):
        local_set(d, "nbrs").update(t.nbrs)
        return d

    eng.edge_map(eng.V, eng.E, ctrue, collect, ctrue, merge, label="truss:collect")
    nbrs = eng.values("nbrs")

    alive: Set[Edge] = {
        (min(s, d), max(s, d)) for s, d in eng.graph.edges() if s != d
    }
    trussness: Dict[Edge, int] = {}
    k = 2
    iterations = 0
    while alive:
        # Peel every edge with support < k - 2; such an edge has trussness
        # k - 1... but k starts at 2 and support >= 0, so the first peel at
        # each k removes edges whose best k is the previous level.
        while True:
            iterations += 1
            fw = eng.flashware
            fw.begin_superstep("truss:peel", f"k={k}")
            support = _support(eng, alive, nbrs)
            doomed = {e for e, sup in support.items() if sup < k - 2}
            fw.barrier(frontier_out=len(doomed))
            if not doomed:
                break
            for e in doomed:
                trussness[e] = k - 1
            alive -= doomed
        k += 1
        if k > eng.graph.num_vertices + 2:
            break
    return AlgorithmResult(
        "ktruss",
        eng,
        trussness,
        iterations,
        extra={"max_k": max(trussness.values(), default=0)},
    )
