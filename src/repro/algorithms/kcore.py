"""K-Core decomposition — basic peeling (paper Algorithm 16, after
Ligra's version) and the optimized local algorithm (paper Algorithm 17,
after Khaouid et al. [44]).

``kcore_basic`` peels vertices of induced degree < k for k = 1, 2, ...;
a peeled vertex has core number k-1.  ``kcore_opt`` runs the h-index
style local refinement: every vertex repeatedly lowers its core estimate
from the histogram of its neighbors' estimates — converging in far fewer
supersteps (the paper reports up to two orders of magnitude).
"""

from __future__ import annotations

from typing import Union

from repro.algorithms.common import AlgorithmResult, local_dict, make_engine
from repro.core.engine import FlashEngine
from repro.core.edgeset import join
from repro.core.primitives import bind, ctrue
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.runtime.vectorized.specs import EdgeMapSpec, VertexMapSpec

# Peeling decrement, which synthesis refuses: each peeled neighbor
# subtracts one from the induced degree (the reduce ignores temp values,
# so plain sum of -1).
_DEC_SPEC = EdgeMapSpec(prop="d", reduce="sum", value=-1, reads=("d",))


def kcore_basic(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
) -> AlgorithmResult:
    """Core numbers by iterative peeling (Algorithm 16)."""
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("d", 0)  # induced degree
    eng.add_property("core", 0)

    def init(v):
        v.d = v.deg
        return v

    def filter_low(v, k):
        return v.d < k

    def assign(v, k):
        v.core = k - 1
        return v

    def update(s, d):
        d.d = d.d - 1
        return d

    def r_dec(t, d):
        # Each temp stands for one removed neighbor: apply the decrement
        # once per contribution (equivalent to the dense sequential form).
        d.d = d.d - 1
        return d

    remaining = eng.vertex_map(eng.V, ctrue, init, label="kc:init")
    iterations = 0
    k = 0
    while eng.size(remaining) != 0:
        k += 1
        # First sweep of each k tests every remaining vertex; afterwards
        # only vertices whose induced degree just dropped can newly fall
        # below k (Ligra's actual frontier optimization).
        candidates = remaining
        while True:
            iterations += 1
            peeled = eng.vertex_map(
                candidates, bind(filter_low, k), bind(assign, k),
                label="kc:peel",
            )
            if eng.size(peeled) == 0:
                break
            remaining = remaining.minus(peeled)
            touched = eng.edge_map(
                peeled, eng.E, ctrue, update, ctrue, r_dec,
                label="kc:dec", spec=_DEC_SPEC,
            )
            candidates = touched.intersect(remaining)
            if eng.size(candidates) == 0:
                break
    return AlgorithmResult("kcore_basic", eng, eng.values("core"), iterations, extra={"max_k": k - 1})


def kcore_opt(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    max_iterations: int = 100_000,
) -> AlgorithmResult:
    """Core numbers by local refinement (Algorithm 17).

    Each round, a vertex whose neighbors cannot support its current core
    estimate lowers the estimate using a histogram ``c`` of
    ``min(own_core, neighbor_core)`` values.
    """
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("core", 0)
    eng.add_property("cnt", 0)
    eng.add_property("c", factory=dict)

    def init(v):
        v.core = v.deg
        return v

    def local1(v):
        v.cnt = 0
        v.c = {}
        return v

    def f1(s, d):
        return s.core >= d.core

    def update1(s, d):
        d.cnt = d.cnt + 1
        return d

    def r1(t, d):
        d.cnt = d.cnt + t.cnt
        return d

    def filter_violating(v):
        return v.cnt < v.core

    def update2(s, d):
        hist = local_dict(d, "c")
        key = min(d.core, s.core)
        hist[key] = hist.get(key, 0) + 1
        return d

    def local2(v):
        total = 0
        core = v.core
        hist = v.c
        while total + hist.get(core, 0) < core:
            total = total + hist.get(core, 0)
            core = core - 1
        v.core = core
        return v

    # synthesis refuses the reset (``v.c = {}`` is a dict display)
    reset_spec = VertexMapSpec(
        map=lambda b: {"cnt": 0, "c": [{} for _ in range(len(b))]},
        reads=("cnt",),
        raw_reads=("c",),
        writes=("cnt", "c"),
    )

    frontier = eng.vertex_map(eng.V, ctrue, init, label="kc_opt:init")
    iterations = 0
    while eng.size(frontier) != 0:
        iterations += 1
        if iterations > max_iterations:
            raise ReproError("kcore_opt failed to converge")
        frontier = eng.vertex_map(eng.V, ctrue, local1, label="kc_opt:reset", spec=reset_spec)
        eng.edge_map(frontier, eng.E, f1, update1, ctrue, r1, label="kc_opt:count")
        # The paper filters the EDGEMAP output, but a vertex with *no*
        # qualifying neighbor (cnt = 0 < core) never appears there; test
        # every vertex so such maximally-violating vertices are caught.
        frontier = eng.vertex_map(eng.V, filter_violating, label="kc_opt:violating")
        eng.edge_map_dense(eng.V, join(eng.E, frontier), ctrue, update2, ctrue, label="kc_opt:hist")
        frontier = eng.vertex_map(frontier, ctrue, local2, label="kc_opt:lower")
    return AlgorithmResult("kcore_opt", eng, eng.values("core"), iterations)
