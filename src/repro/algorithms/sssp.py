"""Single-Source Shortest Paths (frontier-based Bellman-Ford).

Not one of the paper's 14 evaluated applications, but the intro's
canonical ISVP example; included to round out the suite and as a
weighted-graph exercise of the engine (edge weights are read through
``Graph.weight``)."""

from __future__ import annotations

from typing import Union

from repro.algorithms.common import INF, AlgorithmResult, make_engine
from repro.core.engine import FlashEngine
from repro.core.primitives import bind, ctrue
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.runtime.vectorized.specs import EdgeMapSpec

# Bellman-Ford relaxation, which synthesis refuses (the ``graph.weight``
# call): every frontier source offers ``dis + weight``; targets keep the
# minimum, and only strict improvements re-enter the frontier.
_RELAX_SPEC = EdgeMapSpec(
    prop="dis",
    reduce="min",
    value=lambda k: k.sp("dis") + k.w,
    f="improve",
    reads=("dis",),
    uses_weights=True,
)


def sssp(
    graph_or_engine: Union[Graph, FlashEngine],
    root: int = 0,
    num_workers: int = 4,
    max_iterations: int = 1_000_000,
) -> AlgorithmResult:
    """Shortest-path distances from ``root`` (INF when unreachable).
    Edge weights must be non-negative or at least cycle-free-negative;
    unweighted graphs behave like BFS."""
    eng = make_engine(graph_or_engine, num_workers)
    graph = eng.graph
    eng.add_property("dis", INF)

    def init(v, r):
        v.dis = 0.0 if v.id == r else INF
        return v

    def filter_root(v, r):
        return v.id == r

    def relax(s, d):
        d.dis = min(d.dis, s.dis + graph.weight(s.id, d.id))
        return d

    def improves(s, d):
        return s.dis + graph.weight(s.id, d.id) < d.dis

    def reduce(t, d):
        d.dis = min(d.dis, t.dis)
        return d

    eng.vertex_map(eng.V, ctrue, bind(init, root), label="sssp:init")
    frontier = eng.vertex_map(eng.V, bind(filter_root, root), label="sssp:root")
    iterations = 0
    while eng.size(frontier) != 0:
        iterations += 1
        if iterations > max_iterations:
            raise ReproError("sssp failed to converge (negative cycle?)")
        frontier = eng.edge_map(
            frontier, eng.E, improves, relax, ctrue, reduce,
            label="sssp:relax", spec=_RELAX_SPEC,
        )
    return AlgorithmResult("sssp", eng, eng.values("dis"), iterations)
