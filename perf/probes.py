"""Direct timed calls into single layers (the "how measured: one timed
call" rows of the per-layer table).

Each probe calls a layer's public function on objects the benchmark
constructs and returns one number.  Kernels used here are module-level
copies of the BFS and PageRank kernels of ``repro.algorithms`` (those
are closures and cannot be imported).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro import FlashEngine
from repro.algorithms import bfs
from repro.analysis.compile import synthesize
from repro.analysis.staticpass import analyzer
from repro.core.primitives import ctrue
from repro.graph.partition import partition_graph
from repro.runtime.distributed import shipping
from repro.runtime.vectorized.specs import EdgeMapSpec, VertexMapSpec
from repro.serving.cache import ResultCache
from repro.serving.multisource import multi_bfs

from perf.stats import median

INF = float("inf")


def timed(fn: Callable[[], Any], repeats: int = 5) -> float:
    """Median seconds of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


# -- the BFS hop-advance kernel (repro.algorithms.bfs) ----------------------
def _bfs_update(s, d):
    d.dis = s.dis + 1
    return d


def _bfs_cond(v):
    return v.dis == INF


def _bfs_reduce(t, d):
    return t


_BFS_STEP = EdgeMapSpec(
    prop="dis", reduce="min", value=lambda k: k.sp("dis") + 1.0,
    cond_unvisited=INF, reads=("dis",),
)


# -- the PageRank scatter kernel (repro.algorithms.pagerank) ----------------
def _pr_scatter(s, d):
    share = s.rank / s.out_deg if s.out_deg else 0.0
    d.acc = d.acc + share
    return d


_PR_SCATTER = EdgeMapSpec(
    prop="acc", reduce="sum", value=lambda k: k.sp("rank") / k.src_out_deg,
    reads=("rank", "acc"),
)


def partition_build_ms(graph, repeats: int) -> float:
    return timed(lambda: partition_graph(graph, 4, strategy="hash"), repeats) * 1e3


def engine_init_ms(graph, engine_kwargs: Dict[str, Any], repeats: int) -> float:
    def ctor():
        FlashEngine(graph, **engine_kwargs).close()

    return timed(ctor, repeats) * 1e3


def subset_build_full_ms(engine: FlashEngine, repeats: int) -> float:
    return timed(lambda: engine.V, repeats) * 1e3


def analysis_static(repeats: int) -> Dict[str, float]:
    """Static access analysis of the BFS kernel, cold (caches cleared)
    and warm (memoized)."""
    def lookup():
        return analyzer.kernel_access(
            "edge_map_sparse", F=ctrue, M=_bfs_update, C=_bfs_cond, R=_bfs_reduce)

    def cold():
        analyzer.clear_caches()
        lookup()

    cold_s = timed(cold, repeats)
    loops = 2000
    t0 = time.perf_counter()
    for _ in range(loops):
        lookup()
    warm_s = (time.perf_counter() - t0) / loops
    return {"cold_ms": cold_s * 1e3, "warm_us": warm_s * 1e6}


def synth_cold_ms(repeats: int) -> float:
    def cold():
        synthesize.clear_cache()
        synthesize.synthesize_edge_spec(
            "edge_map_sparse", ctrue, _bfs_update, _bfs_cond, _bfs_reduce)

    return timed(cold, repeats) * 1e3


def vectorized_kernels(graph, workers: int, seed: int, repeats: int) -> Dict[str, float]:
    """One timed call of each vectorized kernel shape on ``graph``:
    dense PageRank scatter (ns per arc), sparse BFS step from a
    64-vertex frontier (us per call), VERTEXMAP over V (ns per vertex)."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    frontier_ids = sorted(int(v) for v in rng.choice(n, size=min(64, n), replace=False))
    in_frontier = np.zeros(n, dtype=bool)
    in_frontier[frontier_ids] = True
    init_spec = VertexMapSpec(
        map=lambda k: {"dis": np.where(in_frontier[k.ids], 0.0, INF)}, writes=("dis",))

    def init(v):
        v.dis = 0 if in_frontier[v.id] else INF
        return v

    engine = FlashEngine(graph, num_workers=workers, backend="vectorized",
                         executor="inline", analysis="static")
    try:
        engine.add_property("rank", 1.0 / max(n, 1))
        engine.add_property("acc", 0.0)
        engine.add_property("dis", INF)
        everyone = engine.V
        frontier = engine.subset(frontier_ids)

        def dense():
            engine.edge_map_dense(everyone, engine.E, ctrue, _pr_scatter, ctrue,
                                  label="probe:scatter", spec=_PR_SCATTER)

        def vmap():
            engine.vertex_map(everyone, ctrue, init, label="probe:init", spec=init_spec)

        dense()  # analysis caches and the engine's CSR context are warm after this
        dense_s = timed(dense, repeats)
        vmap()
        vmap_s = timed(vmap, repeats)
        sparse_samples: List[float] = []
        for _ in range(repeats):
            vmap()  # reset ``dis`` so every timed step sees the same state
            t0 = time.perf_counter()
            engine.edge_map_sparse(frontier, engine.E, ctrue, _bfs_update, _bfs_cond,
                                   _bfs_reduce, label="probe:step", spec=_BFS_STEP)
            sparse_samples.append(time.perf_counter() - t0)
        fallback = engine.metrics.backend_choices.get("interp", 0)
    finally:
        engine.close()
    if fallback:
        raise RuntimeError("vectorized probe kernels fell back to the interpreter")
    return {
        "dense_ns_per_arc": dense_s / max(graph.num_arcs, 1) * 1e9,
        "sparse_us_per_call": median(sparse_samples) * 1e6,
        "vertex_map_ns_per_vertex": vmap_s / max(n, 1) * 1e9,
    }


def serialize_ms(num_vertices: int, repeats: int) -> float:
    """``dump_payload`` of a |V|-entry barrier commit batch."""
    batch = ([(v, {"rank": 1.0 / (v + 1), "acc": 0.0}) for v in range(num_vertices)], [])
    return timed(lambda: shipping.dump_payload(batch), repeats) * 1e3


def cache_get_us(num_vertices: int) -> float:
    cache = ResultCache(capacity=16)
    cache.put(0, "bfs-from-source", (("source", 0),), [0.0] * num_vertices)
    loops = 5000
    t0 = time.perf_counter()
    for _ in range(loops):
        cache.get(0, "bfs-from-source", (("source", 0),))
    return (time.perf_counter() - t0) / loops * 1e6


def block_get(store, repeats: int) -> Dict[str, float]:
    """``BlockStore.get`` on a miss (shards mapped) and on a hit."""
    keys = [(m.di, m.si) for di in range(store.num_intervals)
            for m in store.row_metas(di)][: max(repeats, 1)]
    store.release()
    cold: List[float] = []
    for di, si in keys:
        t0 = time.perf_counter()
        store.get(di, si)
        cold.append(time.perf_counter() - t0)
    di, si = keys[-1]
    loops = 2000
    t0 = time.perf_counter()
    for _ in range(loops):
        store.get(di, si)
    warm = (time.perf_counter() - t0) / loops
    return {"get_cold_us": median(cold) * 1e6, "get_warm_us": warm * 1e6}


def serving_kernels(graph, workers: int, sources: Sequence[int], repeats: int) -> Dict[str, float]:
    """A single-source BFS versus the merged multi-source run the
    batcher would issue for 1, 4 and 16 of the same sources, on one
    pooled-style engine."""
    engine = FlashEngine(graph, num_workers=workers, backend="vectorized",
                         executor="inline", analysis="static")
    try:
        def single(source):
            bfs(engine, root=source)
            engine.drop_property("dis")

        single(sources[0])
        singles = []
        for source in sources:
            t0 = time.perf_counter()
            single(source)
            singles.append(time.perf_counter() - t0)
        out = {"single_bfs_ms": median(singles) * 1e3}
        for k in (1, 4, 16):
            batch = list(sources[:k])
            multi_bfs(engine, batch)
            out[f"k{k}_ms"] = timed(lambda: multi_bfs(engine, batch), repeats) * 1e3
    finally:
        engine.close()
    out["cost_ratio_k16"] = out["k16_ms"] / (16 * out["single_bfs_ms"])
    return out
