"""Connected Components — basic label propagation (paper Algorithm 9)
and the optimized hook-and-jump algorithm (paper Algorithm 10, after
Qin et al. [20]).

``cc_basic`` propagates the minimum id one hop per superstep, so it
needs on the order of *diameter* iterations — thousands on road
networks.  ``cc_opt`` maintains a parent-pointer forest and converges in
O(log |V|) rounds by hooking trees onto each other through *virtual*
parent edges and shortcutting with pointer jumping — communication
beyond the neighborhood, which is exactly the capability Table I says
only FLASH expresses.
"""

from __future__ import annotations

from typing import Union

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.core.engine import FlashEngine
from repro.core.edgeset import join
from repro.core.primitives import ctrue
from repro.core.subset import VertexSubset
from repro.errors import ReproError
from repro.graph.graph import Graph


def cc_basic(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    max_iterations: int = 1_000_000,
) -> AlgorithmResult:
    """Label propagation: each vertex adopts the smallest id it hears."""
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("cc", 0)

    def init(v):
        v.cc = v.id
        return v

    def check(s, d):
        return s.cc < d.cc

    def update(s, d):
        d.cc = min(d.cc, s.cc)
        return d

    U = eng.vertex_map(eng.V, ctrue, init, label="cc:init")
    iterations = 0
    while eng.size(U) != 0:
        iterations += 1
        if iterations > max_iterations:
            raise ReproError("cc_basic failed to converge")
        U = eng.edge_map(U, eng.E, check, update, ctrue, update, label="cc:step")
    return AlgorithmResult("cc_basic", eng, eng.values("cc"), iterations)


def cc_opt(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    max_iterations: int = 10_000,
) -> AlgorithmResult:
    """Hook-and-jump CC over a parent-pointer forest.

    Each round performs two phases, both expressed with virtual edge
    sets:

    1. **Hooking** — for every graph edge ``(u, v)``, the *root* of
       ``u``'s tree is offered ``v``'s parent as a smaller candidate
       parent.  The message targets ``u.p`` (not a neighbor of ``v``!),
       i.e. the edge set is ``join(E, p)``.
    2. **Pointer jumping** — ``p(v) = p(p(v))`` over the virtual edges
       ``join(p, V)``.

    Terminates when the forest is flat and stable; component label is
    the minimum id of the component.
    """
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("p", 0)

    def init(v):
        v.p = v.id
        return v

    def hook_check(s, d):
        # d is the root of the source's tree; offer it the source's parent
        # when that parent is smaller.
        return d.p == d.id and s.p < d.p

    def hook(s, d):
        d.p = min(d.p, s.p)
        return d

    def hook_reduce(t, d):
        d.p = min(d.p, t.p)
        return d

    def jump(s, d):
        d.p = s.p
        return d

    def jump_reduce(t, d):
        return t

    eng.vertex_map(eng.V, ctrue, init, label="cc_opt:init")
    # join(E, p): for each graph edge (u, v), a virtual edge u -> v.p.
    hook_edges = join(eng.E, "p")
    # join(p, V): virtual edges v.p -> v used for pointer jumping.
    jump_edges = join("p", eng.V)

    iterations = 0
    prev = eng.values("p")
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise ReproError("cc_opt failed to converge")
        eng.edge_map(eng.V, hook_edges, hook_check, hook, ctrue, hook_reduce, label="cc_opt:hook")
        # Pointer jumping: every vertex reads its parent's parent through
        # the virtual edges (v.p -> v).
        eng.edge_map(eng.V, jump_edges, ctrue, jump, ctrue, jump_reduce, label="cc_opt:jump")
        cur = eng.values("p")
        if cur == prev:
            break
        prev = cur
    return AlgorithmResult("cc_opt", eng, eng.values("p"), iterations)


def connected_components(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    optimized: bool = False,
) -> AlgorithmResult:
    """Dispatch to :func:`cc_basic` or :func:`cc_opt`."""
    if optimized:
        return cc_opt(graph_or_engine, num_workers)
    return cc_basic(graph_or_engine, num_workers)
