"""Breadth-First Search (paper Algorithm 2).

Frontier-based BFS: the frontier ``U`` holds every vertex at distance
``i`` in superstep ``i``; EDGEMAP advances it one hop.  The ``mode``
parameter exposes the dual update propagation study of Fig. 3 —
``"auto"`` is the paper's adaptive dense/sparse switch, ``"sparse"`` and
``"dense"`` pin one kernel.
"""

from __future__ import annotations

from typing import Union

from repro.algorithms.common import INF, AlgorithmResult, make_engine
from repro.core.engine import FlashEngine
from repro.core.primitives import bind, ctrue
from repro.graph.graph import Graph
from repro.runtime.vectorized.specs import EdgeMapSpec

# The dense hop-advance kernel, which synthesis refuses (``dis + 1`` is
# not provably != INF, and the pull scan must stop after the first
# application): a write-once visit (C: ``dis == INF``) where every
# frontier source offers ``dis + 1``.
_STEP_SPEC = EdgeMapSpec(
    prop="dis",
    reduce="min",
    value=lambda k: k.sp("dis") + 1.0,
    cond_unvisited=INF,
    reads=("dis",),
)


def bfs(
    graph_or_engine: Union[Graph, FlashEngine],
    root: int = 0,
    num_workers: int = 4,
    mode: str = "auto",
) -> AlgorithmResult:
    """Distances (in hops) from ``root``; unreachable vertices get INF."""
    if mode not in ("auto", "sparse", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("dis", INF)

    def init(v, r):
        v.dis = 0 if v.id == r else INF
        return v

    def filter_root(v, r):
        return v.id == r

    def update(s, d):
        d.dis = s.dis + 1
        return d

    def cond(v):
        return v.dis == INF

    def reduce(t, d):
        return t

    U = eng.vertex_map(eng.V, ctrue, bind(init, root), label="bfs:init")
    U = eng.vertex_map(eng.V, bind(filter_root, root), label="bfs:root")
    iterations = 0
    while eng.size(U) != 0:
        iterations += 1
        if mode == "auto":
            U = eng.edge_map(
                U, eng.E, ctrue, update, cond, reduce, label="bfs:step", spec=_STEP_SPEC
            )
        elif mode == "sparse":
            U = eng.edge_map_sparse(
                U, eng.E, ctrue, update, cond, reduce, label="bfs:step", spec=_STEP_SPEC
            )
        else:
            U = eng.edge_map_dense(
                U, eng.E, ctrue, update, cond, label="bfs:step", spec=_STEP_SPEC
            )
    return AlgorithmResult("bfs", eng, eng.values("dis"), iterations)
