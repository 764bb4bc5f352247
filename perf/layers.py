"""Per-layer metrics of the traced pass: benchmark spans, program
counters and direct-call probes, assembled into the table of
``perf/README.md``.  A layer the workload bypasses reads 0.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Sequence

import numpy as np

from repro import FlashEngine, Graph
from repro.runtime.tracing import Span as ProgramSpan

from perf import probes
from perf.spans import PRIMITIVES, per_op
from perf.stats import median
from perf.workloads import (
    SERVER_KW,
    EngineWorkload,
    MpDense,
    OocoreDense,
    OpLog,
    ServeWorkload,
    Workload,
    _OocoreWorkload,
)

#: Per-layer metrics and their units, as BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    "graph.partition.build_ms": "ms",
    "graph.blocks.build_s": "s",
    "graph.blocks.get_cold_us": "us",
    "graph.blocks.get_warm_us": "us",
    "graph.blocks.get_s": "s",
    "graph.blocks.blocks_read": "count",
    "graph.blocks.bytes_read": "B",
    "graph.blocks.evictions": "count",
    "graph.blocks.read_amplification": "x",
    "core.engine.init_ms": "ms",
    "core.engine.supersteps": "count",
    "core.engine.primitive_s": "s",
    "core.engine.superstep_self_s": "s",
    "core.engine.us_per_superstep": "us",
    "core.subset.build_full_ms": "ms",
    "algorithms.driver_self_s": "s",
    "analysis.static.cold_ms": "ms",
    "analysis.static.warm_us": "us",
    "analysis.compile.synth_cold_ms": "ms",
    "runtime.flashware.barrier_s": "s",
    "runtime.flashware.barrier_us": "us",
    "runtime.flashware.sync_values": "count",
    "runtime.vectorized.dense_ns_per_arc": "ns",
    "runtime.vectorized.sparse_us_per_call": "us",
    "runtime.vectorized.vertex_map_ns_per_vertex": "ns",
    "runtime.vectorized.fallback_supersteps": "count",
    "runtime.oocore.spill_slowdown": "x",
    "runtime.oocore.vs_vectorized": "x",
    "runtime.distributed.pool_spawn_s": "s",
    "runtime.distributed.session_init_ms": "ms",
    "runtime.distributed.request_wait_s": "s",
    "runtime.distributed.worker_cpu_s": "s",
    "runtime.distributed.critical_path_s": "s",
    "runtime.distributed.overhead_s": "s",
    "runtime.distributed.bytes_sent": "B",
    "runtime.distributed.bytes_recv": "B",
    "runtime.distributed.sync_entries": "count",
    "runtime.distributed.commit_entries": "count",
    "runtime.distributed.serialize_ms": "ms",
    "runtime.distributed.vs_inline_vectorized": "x",
    "runtime.distributed.vs_inline_interp": "x",
    "runtime.tracing.overhead_frac": "frac",
    "perf.spans.overhead_frac": "frac",
    "perf.spans.coverage_frac": "frac",
    "serving.queue_wait_ms": "ms",
    "serving.batch.run_ms": "ms",
    "serving.batch.occupancy_mean": "count",
    "serving.batch.executed": "count",
    "serving.engine_supersteps": "count",
    "serving.rejected": "count",
    "serving.single_bfs_ms": "ms",
    "serving.multisource.k1_ms": "ms",
    "serving.multisource.k4_ms": "ms",
    "serving.multisource.k16_ms": "ms",
    "serving.multisource.cost_ratio_k16": "x",
    "serving.solo_overhead_ms": "ms",
    "serving.cache.get_us": "us",
    "serving.cache.hit_rate": "frac",
    "serving.pool2_rps_ratio": "x",
}

#: Per-op "counts" that are really timings (vary run to run).
TIMING_COUNTS = ("worker_cpu_s", "critical_path_s")


def stable_counts(counts: Dict[str, float]) -> Dict[str, float]:
    """The per-op counts that must repeat exactly for a fixed seed."""
    return {k: v for k, v in counts.items() if k not in TIMING_COUNTS}


def _p50(log: OpLog) -> float:
    return median(log.latencies)


def _ratio_minus_one(num: float, den: float) -> float:
    return num / den - 1.0 if den else 0.0


def measure(wl: Workload, logs: Dict[str, OpLog], quick: bool) -> Dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    repeats = 2 if quick else 5
    if isinstance(wl, ServeWorkload):
        values.update(_serving(wl, logs, repeats, quick))
        graph = wl.graph
        workers = SERVER_KW["num_workers"]
        engine_kwargs = dict(num_workers=workers, backend=SERVER_KW["backend"])
    else:
        assert isinstance(wl, EngineWorkload)
        graph = _resident_graph(wl)
        values.update(_engine(wl, logs))
        values.update(_workload_probes(wl, logs, repeats, graph, values))
        workers = wl.knobs["workers"]
        engine_kwargs = wl.engine_kwargs()
    values.update(_generic_probes(wl, graph, workers, engine_kwargs, repeats))
    return values


# ---------------------------------------------------------------------------
# Engine workloads: spans + counters
# ---------------------------------------------------------------------------
def _engine(wl: EngineWorkload, logs: Dict[str, OpLog]) -> Dict[str, float]:
    plain, spanned, traced = logs["plain"], logs["spans"], logs["tracer"]
    ops = list(per_op(wl.recorder.spans).values())

    def mid(key: str) -> float:
        return median([op.get(key, 0.0) for op in ops])

    counts = spanned.counts[0]
    supersteps = counts["supersteps"]
    primitive = mid("primitive")
    barrier = mid("total:runtime.flashware.barrier")
    barrier_calls = mid("calls:runtime.flashware.barrier")
    wall = mid("wall")
    root_self = mid("root_self")
    out = {
        "perf.spans.overhead_frac": _ratio_minus_one(_p50(spanned), _p50(plain)),
        "runtime.tracing.overhead_frac": _ratio_minus_one(_p50(traced), _p50(plain)),
        "perf.spans.coverage_frac": 1.0 - root_self / wall if wall else 0.0,
        "algorithms.driver_self_s": root_self,
        "core.engine.primitive_s": primitive,
        "core.engine.superstep_self_s": median(
            [sum(op.get(f"self:{name}", 0.0) for name in PRIMITIVES) for op in ops]),
        "core.engine.us_per_superstep": primitive / supersteps * 1e6 if supersteps else 0.0,
        "core.engine.supersteps": supersteps,
        "runtime.flashware.barrier_s": barrier,
        "runtime.flashware.barrier_us": barrier / barrier_calls * 1e6 if barrier_calls else 0.0,
        "runtime.flashware.sync_values": counts["sync_values"],
        "runtime.vectorized.fallback_supersteps": counts["fallback_supersteps"],
        "graph.blocks.get_s": mid("total:graph.blocks.get"),
        "graph.blocks.blocks_read": counts["blocks_read"],
        "graph.blocks.bytes_read": counts["bytes_read"],
        "runtime.distributed.request_wait_s": mid("total:runtime.distributed.request"),
    }
    return out


def _resident_graph(wl: EngineWorkload):
    """A resident CSR of the workload's input for the vectorized probes
    (the oocore workloads' engines only ever see a ``BlockGraph``)."""
    if isinstance(wl, OocoreDense):
        n, src, dst, _weights = wl.edges()
        return Graph(n, zip(src.tolist(), dst.tolist()), directed=False)
    if isinstance(wl, _OocoreWorkload):
        return wl.resident
    return wl.graph


def _op_ms(wl: EngineWorkload, ops: int, **overrides: Any) -> float:
    """Median latency (ms) of ``ops`` operations with engine knobs
    overridden; outputs are verified like any other op."""
    log = OpLog()
    for _ in range(ops):
        latency, outputs, counts = wl.op("plain", **overrides)
        log.latencies.append(latency)
        log.outputs.append(outputs)
    if wl.verify(log):
        raise RuntimeError(f"{wl.name}: probe op with {overrides} gave a wrong answer")
    return _p50(log) * 1e3


def _workload_probes(wl: EngineWorkload, logs: Dict[str, OpLog], repeats: int,
                     resident, spans: Dict[str, float]) -> Dict[str, float]:
    """Metrics only one kind of workload has: the block store's, the
    worker pool's.  ``resident`` is the input as a resident graph and
    ``spans`` the span metrics of :func:`_engine`."""
    p50_ms = _p50(logs["plain"]) * 1e3
    out: Dict[str, float] = {}
    if isinstance(wl, _OocoreWorkload):
        store = wl.store
        counts = logs["spans"].counts[0]
        out["graph.blocks.build_s"] = wl.build_s
        out["graph.blocks.evictions"] = counts["evictions"]
        out["graph.blocks.read_amplification"] = counts["bytes_read"] / store.total_bytes
        # Budget at twice the store: nothing is ever evicted.
        fits_ms = _op_ms(wl, 3, oocore_budget=2 * store.total_bytes)
        store.budget = wl.budget
        out["runtime.oocore.spill_slowdown"] = p50_ms / fits_ms
        streamed, wl.graph = wl.graph, resident
        try:
            vec_ms = _op_ms(wl, 3, backend="vectorized", oocore_budget=None)
        finally:
            wl.graph = streamed
        out["runtime.oocore.vs_vectorized"] = fits_ms / vec_ms
        got = probes.block_get(store, repeats)
        out["graph.blocks.get_cold_us"] = got["get_cold_us"]
        out["graph.blocks.get_warm_us"] = got["get_warm_us"]
    if isinstance(wl, MpDense):
        counts = logs["spans"].counts
        for key in ("bytes_sent", "bytes_recv", "sync_entries", "commit_entries"):
            out[f"runtime.distributed.{key}"] = counts[0][key]
        for key in TIMING_COUNTS:
            out[f"runtime.distributed.{key}"] = median([c[key] for c in counts])
        # Pickle + pipe + scheduling: the wait the workers' own compute
        # (their slower member, per superstep) does not explain.
        out["runtime.distributed.overhead_s"] = (
            spans["runtime.distributed.request_wait_s"]
            - out["runtime.distributed.critical_path_s"])
        out["runtime.distributed.pool_spawn_s"] = wl.pool_spawn_s
        inline = dict(executor="inline")
        out["runtime.distributed.vs_inline_vectorized"] = p50_ms / _op_ms(
            wl, 3, backend="vectorized", **inline)
        out["runtime.distributed.vs_inline_interp"] = p50_ms / _op_ms(
            wl, 2, backend="interp", **inline)
    return out


def _generic_probes(wl: Workload, graph, workers: int, engine_kwargs: Dict[str, Any],
                    repeats: int) -> Dict[str, float]:
    """Probes of the layers every workload runs through; they need only
    a resident graph."""
    n = graph.num_vertices
    out = {"graph.partition.build_ms": probes.partition_build_ms(graph, min(repeats, 3))}
    if isinstance(wl, MpDense):
        out["runtime.distributed.serialize_ms"] = probes.serialize_ms(n, repeats)
    if isinstance(wl, ServeWorkload):
        out["serving.cache.get_us"] = probes.cache_get_us(n)
    # The engine the workload itself constructs (a BlockGraph for oocore-*).
    target = wl.graph if isinstance(wl, EngineWorkload) else graph
    out["core.engine.init_ms"] = probes.engine_init_ms(target, engine_kwargs, repeats)
    if isinstance(wl, MpDense):  # the same constructor, on the warm pool
        out["runtime.distributed.session_init_ms"] = out["core.engine.init_ms"]
    kernels = probes.vectorized_kernels(graph, workers, wl.seed, repeats)
    for key, value in kernels.items():
        out[f"runtime.vectorized.{key}"] = value
    engine = FlashEngine(graph, num_workers=workers, backend="vectorized")
    try:
        out["core.subset.build_full_ms"] = probes.subset_build_full_ms(engine, repeats)
    finally:
        engine.close()
    # Last: these clear the program's global analysis caches.
    out["analysis.compile.synth_cold_ms"] = probes.synth_cold_ms(repeats)
    static = probes.analysis_static(repeats)
    out["analysis.static.cold_ms"] = static["cold_ms"]
    out["analysis.static.warm_us"] = static["warm_us"]
    return out


# ---------------------------------------------------------------------------
# Serving workloads: the program's own serve.* spans + snapshot
# ---------------------------------------------------------------------------
def _serve_spans(trace: Sequence[ProgramSpan]) -> Dict[str, float]:
    """Queue wait and batch run time from the program's ``serve.request``
    / ``serve.batch`` spans.  With one pooled engine batches do not
    overlap, so the batch that was running when a request ended is the
    one that served it."""
    batches = sorted((s.ts, s.ts + s.dur) for s in trace
                     if s.name == "serve.batch" and s.dur is not None)
    starts = [b[0] for b in batches]
    waits: List[float] = []
    served: List[float] = []
    for s in trace:
        if s.name != "serve.request" or s.dur is None or s.args.get("status") != "ok":
            continue
        end = s.ts + s.dur
        i = bisect.bisect_right(starts, end) - 1
        if i < 0:
            continue
        waits.append(max(0.0, batches[i][0] - s.ts))
        served.append(s.dur)
    return {
        "queue_wait_ms": median(waits) * 1e3 if waits else 0.0,
        "run_ms": median([hi - lo for lo, hi in batches]) * 1e3 if batches else 0.0,
        "request_ms": median(served) * 1e3 if served else 0.0,
    }


def _serving(wl: ServeWorkload, logs: Dict[str, OpLog], repeats: int, quick: bool
             ) -> Dict[str, float]:
    plain, traced = logs["plain"], logs["tracer"]
    p50_ms = _p50(plain) * 1e3
    spans = _serve_spans(traced.extra["trace"])
    snapshot = plain.extra["snapshot"]
    requests = snapshot["requests"]
    overhead = _ratio_minus_one(_p50(traced), _p50(plain))
    out = {
        "runtime.tracing.overhead_frac": overhead,
        # The traced pass's only instrumentation on the serving path is
        # the program tracer; coverage is the share of client latency
        # inside the server's request span.
        "perf.spans.overhead_frac": overhead,
        "perf.spans.coverage_frac": spans["request_ms"] / (_p50(traced) * 1e3),
        "serving.queue_wait_ms": spans["queue_wait_ms"],
        "serving.batch.run_ms": spans["run_ms"],
        "serving.batch.occupancy_mean": snapshot["batches"]["occupancy_mean"],
        "serving.batch.executed": snapshot["batches"]["executed"],
        "serving.engine_supersteps": snapshot["engine_supersteps"],
        "serving.rejected": requests.get("rejected_queue_full", 0)
        + requests.get("rejected_deadline", 0),
    }
    n = wl.graph.num_vertices
    rng = np.random.default_rng(wl.seed)
    sources = [int(v) for v in rng.choice(n, size=min(16, n), replace=False)]
    kernels = probes.serving_kernels(wl.graph, SERVER_KW["num_workers"], sources,
                                     2 if quick else 3)
    out["serving.single_bfs_ms"] = kernels["single_bfs_ms"]
    for k in (1, 4, 16):
        out[f"serving.multisource.k{k}_ms"] = kernels[f"k{k}_ms"]
    out["serving.multisource.cost_ratio_k16"] = kernels["cost_ratio_k16"]
    if wl.knobs["clients"] == 1:
        out["serving.solo_overhead_ms"] = p50_ms - kernels["single_bfs_ms"]
    else:
        probe_s = 0.3 if quick else 2.0
        rps = len(plain.latencies) / plain.wall_s

        def burst(server):
            return wl.drive(server, seconds=probe_s)

        cached = wl.with_server(burst, caching=True)
        out["serving.cache.hit_rate"] = cached.extra["snapshot"]["cache"]["results"]["hit_rate"]
        pool2 = wl.with_server(burst, engine_pool=2)
        out["serving.pool2_rps_ratio"] = (len(pool2.latencies) / pool2.wall_s) / rps
        for log in (cached, pool2):
            if log.errors or wl.verify(log):
                raise RuntimeError(f"{wl.name}: probe server gave a wrong answer")
    return out
