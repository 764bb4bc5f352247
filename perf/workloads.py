"""The seven ledger workloads.

Each workload makes its inputs from the seed, builds the system under
test with every knob passed explicitly (so a later change of defaults
cannot move the baseline), and drives it in a closed loop.  Engine
workloads have one caller; ``serve-solo`` one client; ``serve-burst``
sixteen.  An engine *operation* includes ``FlashEngine(...)``
construction, because every ``repro run`` pays it.

Sizes: the issue's sizes were timed at 0.8-1.5 s per engine op; the
driver allows about 21 s per run including three set-ups, so each
engine workload's one size knob is halved (see ``SIZES`` and
``perf/README.md``) to fit at least ten ops into a ten-second run.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import FlashEngine, random_graph, road_network, social_network
from repro.algorithms import bfs, cc_basic, pagerank, sssp
from repro.errors import ServingError
from repro.graph.blocks import (
    BlockGraph,
    BlockStore,
    build_block_store,
    build_block_store_streamed,
)
from repro.runtime.distributed import get_pool, shutdown_pools
from repro.runtime.flashware import FlashwareOptions
from repro.runtime.tracing import RingBufferSink, Tracer
from repro.serving.server import GraphServer

from perf import oracles
from perf.spans import SpanRecorder

MiB = 1 << 20

#: Engine knobs every workload passes explicitly.
ENGINE_KW: Dict[str, Any] = dict(
    partition_strategy="hash",
    auto_analyze=True,
    analysis="static",
    remote_promotion=True,
    dense_threshold=None,  # Ligra's |arcs|/20, derived from the input
)

#: Final size knobs (``full``) and the toy sizes of ``--smoke``.  The
#: reason for each departure from the issue's size is in the README.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "vec-dense": {
        "full": dict(vertices=25_000, avg_degree=16, pr_iters=10, workers=4),
        "smoke": dict(vertices=1_500, avg_degree=16, pr_iters=10, workers=4),
    },
    "vec-sparse": {
        "full": dict(side=220, workers=4),
        "smoke": dict(side=24, workers=4),
    },
    "mp-dense": {
        "full": dict(vertices=2_000, edges=20_000, pr_iters=5, workers=2),
        "smoke": dict(vertices=200, edges=1_000, pr_iters=5, workers=2),
    },
    "oocore-dense": {
        "full": dict(vertices=20_000, edges=600_000, pr_iters=5,
                     budget=4 * MiB, workers=4),
        "smoke": dict(vertices=2_000, edges=20_000, pr_iters=5,
                      budget=64 * 1024, workers=4),
    },
    "oocore-sparse": {
        "full": dict(side=40, intervals=16, budget_share=8, workers=4),
        "smoke": dict(side=16, intervals=16, budget_share=8, workers=4),
    },
    "serve-solo": {
        "full": dict(vertices=500, avg_degree=8, clients=1,
                     hot_fraction=0.0, warmup_requests=50),
        "smoke": dict(vertices=150, avg_degree=8, clients=1,
                      hot_fraction=0.0, warmup_requests=10),
    },
    "serve-burst": {
        "full": dict(vertices=500, avg_degree=8, clients=16,
                     hot_fraction=0.5, warmup_requests=50),
        "smoke": dict(vertices=150, avg_degree=8, clients=16,
                      hot_fraction=0.5, warmup_requests=16),
    },
}

#: Server knobs (issue: "All server/engine knobs are passed explicitly").
SERVER_KW: Dict[str, Any] = dict(
    num_workers=4,
    engine_pool=1,
    backend="vectorized",
    queue_depth=64,
    batch_window=0.002,
    max_batch=16,
    batching=True,
    caching=False,
    cache_capacity=4096,
    artifact_cache_capacity=64,
    default_deadline=None,
)

#: The ``batchable`` request mix of ``repro.serving.loadgen`` (60 % BFS,
#: 40 % SSSP) as counts per block of five requests.
MIX_BLOCK = (("bfs-from-source", 3), ("sssp", 2))
#: ``loadgen`` defaults to 4 hot sources; which 4 vertices the seed
#: picks then moved serve-burst's median latency up to 18 % on one and
#: the same graph.  16 average that out (10-seed p50 spread 5.4 % -> 2.9 %).
HOT_SET_SIZE = 16


@dataclass
class OpLog:
    """What one timed (or traced) phase observed."""

    latencies: List[float] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    counts: List[Dict[str, float]] = field(default_factory=list)
    errors: int = 0
    wall_s: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.errors


def _digest(*arrays: Any) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a)).tobytes())
    return h.hexdigest()


def _edge_arrays(graph) -> Tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(graph.edges(), dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def _weights(graph) -> np.ndarray:
    return np.fromiter((w for _s, _d, w in graph.weighted_edges()), dtype=float)


def _corner_root(rng: np.random.Generator, side: int) -> int:
    """A root within ``side / 50`` cells (at least 2) of the grid's
    origin corner, so the BFS depth (about two sides) varies by about
    1 % with where the seed landed, not by a factor of two."""
    x, y = rng.integers(0, max(2, side // 50), size=2)
    return int(y * side + x)


class Workload:
    """Interface the harness drives; see ``harness.py`` for the order."""

    name = ""
    why = ""
    #: Percentile reported as ``op_p95_ms``: 95 where the designed sample
    #: count supports it (>= 200 ops a run), else the median.
    tail_pct = 50.0
    #: Modes a traced run interleaves op by op.
    trace_modes: Tuple[str, ...] = ("plain", "spans", "tracer")

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size_name = size
        self.knobs: Dict[str, Any] = dict(SIZES[self.name][size])
        self.workdir = workdir
        self.recorder = SpanRecorder()

    # -- lifecycle -------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        raise NotImplementedError

    def input_digest(self) -> str:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, modes: Sequence[str] = ("plain",)) -> Dict[str, OpLog]:
        raise NotImplementedError

    def verify(self, log: OpLog) -> int:
        """Number of operations in ``log`` whose output is wrong."""
        raise NotImplementedError

    def oversubscribed(self, cpu_count: int) -> bool:
        return False


# ---------------------------------------------------------------------------
# Engine workloads (one caller)
# ---------------------------------------------------------------------------
class _SpannedEngine(FlashEngine):
    """``FlashEngine`` whose full-subset property records a span (a
    property cannot be rebound on an instance)."""

    #: Set on the instance right after construction (which never reads ``V``).
    _perf_recorder: SpanRecorder

    @property
    def V(self):
        with self._perf_recorder.span("core.subset.build_full"):
            return FlashEngine.V.fget(self)


_ENGINE_SPANS = {
    "vertex_map": "core.engine.vertex_map",
    "edge_map": "core.engine.edge_map",
    "edge_map_dense": "core.engine.edge_map_dense",
    "edge_map_sparse": "core.engine.edge_map_sparse",
    "collect": "core.engine.collect",
    "values": "core.engine.values",
    "close": "core.engine.close",
}
_FLASHWARE_SPANS = {
    "barrier": "runtime.flashware.barrier",
    "barrier_columnar": "runtime.flashware.barrier",
}
_POOL_SPANS = {
    "request_one": "runtime.distributed.request",
    "request_many": "runtime.distributed.request",
    "broadcast": "runtime.distributed.request",
}
_STORE_SPANS = {"get": "graph.blocks.get"}

Edges = Tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]  # n, src, dst, weights


@dataclass(frozen=True)
class Step:
    """One algorithm of an operation, with its engine-free reference."""

    label: str
    run: Callable[[FlashEngine], Any]
    reference: Callable[[Edges], np.ndarray]


def pagerank_step(iters: int) -> Step:
    return Step(
        "pagerank",
        lambda e: pagerank(e, damping=0.85, max_iters=iters, tolerance=1e-9).values,
        lambda g: oracles.pagerank(g[0], g[1], g[2], damping=0.85, max_iters=iters,
                                   tolerance=1e-9),
    )


def cc_step() -> Step:
    return Step("cc", lambda e: cc_basic(e).values,
                lambda g: oracles.components_min_label(g[0], g[1], g[2]))


def bfs_step(root: int) -> Step:
    return Step("bfs", lambda e: bfs(e, root=root, mode="auto").values,
                lambda g: oracles.bfs_levels(g[0], g[1], g[2], [root])[0])


def sssp_step(root: int) -> Step:
    return Step("sssp", lambda e: sssp(e, root=root).values,
                lambda g: oracles.dijkstra(g[0], g[1], g[2], g[3], [root])[0])


class EngineWorkload(Workload):
    """One caller running ``steps`` back to back, each on a fresh
    engine, as consecutive ``repro run`` invocations would."""

    executor = "inline"
    backend: Optional[str] = "vectorized"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        self.graph: Any = None
        self.root = 0
        self.steps: List[Step] = []
        self.reference: Dict[str, np.ndarray] = {}

    # -- what subclasses define -----------------------------------------
    def make_graph(self):
        """Generate the input from the seed (and ``self.root``, if any)."""
        raise NotImplementedError

    def make_steps(self) -> List[Step]:
        raise NotImplementedError

    def edges(self) -> Edges:
        """The generated input as raw arrays, for the oracle and the digest."""
        src, dst = _edge_arrays(self.graph)
        weights = _weights(self.graph) if self.graph.weighted else None
        return self.graph.num_vertices, src, dst, weights

    def input_digest(self) -> str:
        _n, src, dst, weights = self.edges()
        return _digest(src, dst, [] if weights is None else weights, [self.root])

    def prepare_oracle(self) -> None:
        edges = self.edges()
        self.reference = {step.label: step.reference(edges) for step in self.steps}

    def engine_kwargs(self) -> Dict[str, Any]:
        return dict(
            ENGINE_KW,
            num_workers=self.knobs["workers"],
            backend=self.backend,
            executor=self.executor,
            options=FlashwareOptions(
                sync_critical_only=True, necessary_mirrors_only=True
            ),
        )

    # -- lifecycle -------------------------------------------------------
    def build(self) -> None:
        self.graph = self.make_graph()
        self.steps = self.make_steps()

    def teardown(self) -> None:
        self.graph = None

    def warmup(self) -> None:
        for _ in range(2):
            self.op("plain")

    def long_lived(self) -> List[Tuple[Any, Dict[str, str]]]:
        """Long-lived instances (pool, store) to span during a traced op."""
        return []

    # -- one operation ---------------------------------------------------
    def new_engine(self, mode: str, **overrides: Any) -> FlashEngine:
        kwargs = dict(self.engine_kwargs(), **overrides)
        if mode == "tracer":
            kwargs["tracer"] = Tracer(RingBufferSink(capacity=1 << 16))
        if mode != "spans":
            return FlashEngine(self.graph, **kwargs)
        rec = self.recorder
        with rec.span("core.engine.init"):
            engine = _SpannedEngine(self.graph, **kwargs)
        engine._perf_recorder = rec
        rec.instrument(engine, _ENGINE_SPANS)
        rec.instrument(engine.flashware, _FLASHWARE_SPANS)
        return engine

    def op(self, mode: str = "plain", **overrides: Any) -> Tuple[float, List[Any], Dict[str, float]]:
        """Run every step once; returns (latency, outputs, counts)."""
        spanned = mode == "spans"
        rec = self.recorder
        engines: List[FlashEngine] = []
        outputs: List[Any] = []
        before = self.counters_before()
        if spanned:
            for obj, names in self.long_lived():
                rec.instrument(obj, names)
        try:
            t0 = time.perf_counter()
            with rec.operation() if spanned else nullcontext():
                for step in self.steps:
                    engine = self.new_engine(mode, **overrides)
                    engines.append(engine)
                    try:
                        outputs.append(step.run(engine))
                    finally:
                        engine.close()
            latency = time.perf_counter() - t0
        finally:
            if spanned:
                for obj, names in self.long_lived():
                    rec.restore(obj, list(names))
        counts = self.counts(engines, before)
        outputs = [np.asarray(v, dtype=float) for v in outputs]
        return latency, outputs, counts

    def counters_before(self) -> Dict[str, float]:
        return {}

    def counts(self, engines: List[FlashEngine], before: Dict[str, float]) -> Dict[str, float]:
        out = {"supersteps": 0, "sync_values": 0, "fallback_supersteps": 0,
               "blocks_read": 0, "bytes_read": 0}
        for engine in engines:
            summary = engine.metrics.summary()
            out["supersteps"] += summary["supersteps"]
            out["sync_values"] += summary["sync_values"]
            out["blocks_read"] += summary["blocks_read"]
            out["bytes_read"] += summary["bytes_read"]
            if self.executor == "inline":
                out["fallback_supersteps"] += engine.metrics.backend_choices.get("interp", 0)
        return out

    def run(self, seconds: float, modes: Sequence[str] = ("plain",)) -> Dict[str, OpLog]:
        logs = {mode: OpLog() for mode in modes}
        start = time.perf_counter()
        turn = 0
        # Closed loop: the next op starts when the previous one returned.
        while True:
            mode = modes[turn % len(modes)]
            turn += 1
            log = logs[mode]
            try:
                latency, outputs, counts = self.op(mode)
            except Exception:  # an op that raises is a failed op, not a crash
                if not log.errors:
                    traceback.print_exc(file=sys.stderr)
                log.errors += 1
            else:
                log.latencies.append(latency)
                log.outputs.append(outputs)
                log.counts.append(counts)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and turn >= len(modes):
                break
        for log in logs.values():
            log.wall_s = elapsed
        return logs

    def verify(self, log: OpLog) -> int:
        wrong = 0
        for outputs in log.outputs:
            ok = len(outputs) == len(self.steps) and all(
                oracles.matches(got, self.reference[step.label])
                for got, step in zip(outputs, self.steps)
            )
            wrong += 0 if ok else 1
        return wrong


class VecDense(EngineWorkload):
    name = "vec-dense"
    why = ("dense pull kernels, full-frontier subset builds and columnar barriers "
           "do the work; block I/O, pipes and serving do none")

    def make_graph(self):
        k = self.knobs
        return social_network(k["vertices"], avg_degree=k["avg_degree"], seed=self.seed)

    def make_steps(self) -> List[Step]:
        return [pagerank_step(self.knobs["pr_iters"]), cc_step()]


class VecSparse(EngineWorkload):
    name = "vec-sparse"
    why = ("same backend, opposite use: ~880 tiny-frontier supersteps, so the ~0.5 ms "
           "fixed cost per superstep dominates and kernels do little")

    def make_graph(self):
        side = self.knobs["side"]
        self.root = _corner_root(np.random.default_rng(self.seed), side)
        # Weights in [1, 2): SSSP then relaxes about as many vertices per
        # superstep as BFS visits.  With the default [1, 100) the size of
        # the re-relaxation frontiers, and with it the op time, moved
        # 8 % from seed to seed.
        return road_network(side, side, seed=self.seed, drop_fraction=0.05) \
            .with_random_weights(seed=self.seed, low=1.0, high=2.0)

    def make_steps(self) -> List[Step]:
        return [bfs_step(self.root), sssp_step(self.root)]


class MpDense(EngineWorkload):
    name = "mp-dense"
    why = ("the only workload with pickling, pipes, worker interp replicas and barrier "
           "delta shipping on the path (ROADMAP conviction 1: mp vs the right baseline)")
    executor = "mp"
    backend = "interp"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        self.pool = None
        self.pool_spawn_s = 0.0

    def make_graph(self):
        k = self.knobs
        self.root = int(np.random.default_rng(self.seed).integers(0, k["vertices"]))
        return random_graph(k["vertices"], k["edges"], seed=self.seed)

    def make_steps(self) -> List[Step]:
        return [pagerank_step(self.knobs["pr_iters"]), bfs_step(self.root)]

    def build(self) -> None:
        super().build()
        # Pre-spawn the pool: the first mp engine pays process start.
        t0 = time.perf_counter()
        with FlashEngine(self.graph, **self.engine_kwargs()):
            self.pool_spawn_s = time.perf_counter() - t0
        self.pool = get_pool(self.knobs["workers"])

    def teardown(self) -> None:
        shutdown_pools()
        self.pool = None
        super().teardown()

    def long_lived(self):
        return [(self.pool, _POOL_SPANS)]

    def oversubscribed(self, cpu_count: int) -> bool:
        return cpu_count < self.knobs["workers"]

    def counters_before(self) -> Dict[str, float]:
        # The pool's byte counters are cumulative across engines.
        return {"bytes_sent": self.pool.bytes_sent, "bytes_recv": self.pool.bytes_recv}

    def counts(self, engines, before):
        out = super().counts(engines, before)
        out["bytes_sent"] = self.pool.bytes_sent - before["bytes_sent"]
        out["bytes_recv"] = self.pool.bytes_recv - before["bytes_recv"]
        for key in ("sync_entries", "commit_entries", "worker_cpu_s", "critical_path_s"):
            # An inline engine (the vs_inline_* probes) has no session.
            out[key] = sum(e.dist_summary().get(key, 0) for e in engines)
        return out


class _OocoreWorkload(EngineWorkload):
    backend = "oocore"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        self.store: Optional[BlockStore] = None
        self.store_dir: Optional[Path] = None
        self.budget = 0
        self.build_s = 0.0

    def engine_kwargs(self) -> Dict[str, Any]:
        return dict(super().engine_kwargs(), oocore_budget=self.budget)

    def build_store(self, directory: Path) -> BlockStore:
        raise NotImplementedError

    def budget_for(self, store: BlockStore) -> int:
        raise NotImplementedError

    def build(self) -> None:
        self.store_dir = self.workdir / f"store-{self.name}"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        t0 = time.perf_counter()
        self.store = self.build_store(self.store_dir)
        self.build_s = time.perf_counter() - t0
        self.budget = self.budget_for(self.store)
        # Bound mapped blocks from the first access (engine construction
        # streams every block once for the partition's mirror sets).
        self.store.budget = self.budget
        self.graph = BlockGraph(self.store)
        self.steps = self.make_steps()

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        super().teardown()

    def long_lived(self):
        return [(self.store, _STORE_SPANS)]

    def counters_before(self) -> Dict[str, float]:
        return {"evictions": self.store.blocks_evicted}

    def counts(self, engines, before):
        out = super().counts(engines, before)
        out["evictions"] = self.store.blocks_evicted - before["evictions"]
        return out


class OocoreDense(_OocoreWorkload):
    name = "oocore-dense"
    why = ("streams every block every dense superstep from a store 6.9x the block "
           "cache (ROADMAP conviction 2: re-reads)")

    def chunks(self, chunk: int = 100_000):
        """A factory of seeded random edge chunks: the streamed builder
        consumes it twice without the edge list ever being resident."""
        n, m, seed = self.knobs["vertices"], self.knobs["edges"], self.seed

        def make():
            rng = np.random.default_rng(seed)
            remaining = m
            while remaining:
                k = min(chunk, remaining)
                yield (rng.integers(0, n, size=k, dtype=np.int64),
                       rng.integers(0, n, size=k, dtype=np.int64))
                remaining -= k

        return make

    def build_store(self, directory: Path) -> BlockStore:
        return build_block_store_streamed(
            directory, self.knobs["vertices"], self.chunks(), directed=False,
            interval=None,
        )

    def budget_for(self, store: BlockStore) -> int:
        return self.knobs["budget"]

    def make_steps(self) -> List[Step]:
        return [pagerank_step(self.knobs["pr_iters"])]

    def edges(self) -> Edges:
        parts = list(self.chunks()())
        return (self.knobs["vertices"],
                np.concatenate([s for s, _d in parts]),
                np.concatenate([d for _s, d in parts]),
                None)


class OocoreSparse(_OocoreWorkload):
    name = "oocore-sparse"
    why = ("same store layer, opposite use: hundreds of sparse supersteps touching a few "
           "near-diagonal blocks each, so per-get cost and block skipping matter, bytes do not")

    def build_store(self, directory: Path) -> BlockStore:
        side = self.knobs["side"]
        self.root = _corner_root(np.random.default_rng(self.seed), side)
        self.resident = road_network(side, side, seed=self.seed, drop_fraction=0.05)
        n = self.resident.num_vertices
        interval = -(-n // self.knobs["intervals"])
        return build_block_store(self.resident, directory, interval=interval)

    def budget_for(self, store: BlockStore) -> int:
        return store.total_bytes // self.knobs["budget_share"]

    def make_steps(self) -> List[Step]:
        return [bfs_step(self.root)]

    def edges(self) -> Edges:
        return (self.resident.num_vertices, *_edge_arrays(self.resident), None)


# ---------------------------------------------------------------------------
# Serving workloads (closed-loop clients)
# ---------------------------------------------------------------------------
Request = Tuple[str, int]  # (algorithm, source)


class ServeWorkload(Workload):
    """Closed-loop clients against one ``GraphServer``: each client sends
    its next request only after the previous reply."""

    tail_pct = 95.0
    trace_modes = ("plain", "tracer")
    #: Planned requests per client (more than any run completes).
    PLAN = 4096

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        self.graph = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[GraphServer] = None
        self.plans: List[List[Request]] = []
        self.cursor: List[int] = []
        self.reference: Dict[str, np.ndarray] = {}

    # -- inputs ----------------------------------------------------------
    def plan_requests(self) -> List[List[Request]]:
        """Each client's request sequence, from the seed alone.  The mix
        is stratified: every block of ``MIX_BLOCK`` requests holds
        exactly the mix's proportions in seeded random order, so the
        share of (dearer) SSSP requests a run happens to draw is not a
        source of run-to-run spread; sources are drawn as
        ``repro.serving.loadgen`` draws them."""
        k = self.knobs
        n = k["vertices"]
        rng = random.Random(self.seed)
        hot = sorted(rng.sample(range(n), min(HOT_SET_SIZE, n)))
        block = [name for name, count in MIX_BLOCK for _ in range(count)]
        plans = []
        for cid in range(k["clients"]):
            crng = random.Random((self.seed << 16) ^ cid)
            plan: List[Request] = []
            while len(plan) < self.PLAN:
                crng.shuffle(block)
                for algorithm in block:
                    if crng.random() < k["hot_fraction"]:
                        source = crng.choice(hot)
                    else:
                        source = crng.randrange(n)
                    plan.append((algorithm, source))
            plans.append(plan)
        return plans

    def input_digest(self) -> str:
        flat = [(0 if a == MIX_BLOCK[0][0] else 1, s) for p in self.plans for a, s in p]
        return _digest(*_edge_arrays(self.graph), _weights(self.graph), flat)

    # -- lifecycle -------------------------------------------------------
    def build(self) -> None:
        k = self.knobs
        # Weights in [1, 2), as in vec-sparse: with [1, 100) the number of
        # SSSP re-relaxation rounds depends on the seed's graph and moved
        # serve-burst throughput and latency 6-9 % from seed to seed.
        self.graph = social_network(k["vertices"], avg_degree=k["avg_degree"], seed=self.seed) \
            .with_random_weights(seed=self.seed, low=1.0, high=2.0)
        self.plans = self.plan_requests()
        self.cursor = [0] * k["clients"]
        self.loop = asyncio.new_event_loop()
        self.server = GraphServer(self.graph, **SERVER_KW)
        self.loop.run_until_complete(self.server.start())

    def teardown(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.server = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        self.graph = None

    def prepare_oracle(self) -> None:
        n = self.graph.num_vertices
        src, dst = _edge_arrays(self.graph)
        everyone = range(n)
        self.reference = {
            "bfs-from-source": oracles.bfs_levels(n, src, dst, everyone),
            "sssp": oracles.dijkstra(n, src, dst, _weights(self.graph), everyone),
        }

    # -- load generation -------------------------------------------------
    async def _client(self, server: GraphServer, cid: int, log: OpLog,
                      deadline: Optional[float], budget: Optional[int]) -> None:
        plan = self.plans[cid]
        sent = 0
        while (budget is None or sent < budget) and (
            deadline is None or time.perf_counter() < deadline
        ):
            algorithm, source = plan[self.cursor[cid] % len(plan)]
            self.cursor[cid] += 1
            sent += 1
            t0 = time.perf_counter()
            try:
                result = await server.submit(algorithm, {"source": source}, deadline=None)
            except ServingError:  # rejected or errored: counts as failed
                log.errors += 1
                continue
            log.latencies.append(time.perf_counter() - t0)
            log.outputs.append((algorithm, source, np.asarray(result.value, dtype=float)))

    async def _drive(self, server: GraphServer, seconds: Optional[float],
                     per_client: Optional[int]) -> OpLog:
        log = OpLog()
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        await asyncio.gather(*[
            self._client(server, cid, log, deadline, per_client)
            for cid in range(self.knobs["clients"])
        ])
        log.wall_s = time.perf_counter() - start
        log.extra["snapshot"] = server.metrics_snapshot()
        return log

    def drive(self, server: GraphServer, seconds: Optional[float] = None,
              per_client: Optional[int] = None) -> OpLog:
        return self.loop.run_until_complete(self._drive(server, seconds, per_client))

    def warmup(self) -> None:
        clients = self.knobs["clients"]
        self.drive(self.server, per_client=-(-self.knobs["warmup_requests"] // clients))

    def with_server(self, fn: Callable[[GraphServer], Any], **overrides: Any) -> Any:
        """Run ``fn`` against a second, temporary server (a tracer or a
        changed knob is a constructor argument)."""
        server = GraphServer(self.graph, **dict(SERVER_KW, **overrides))
        self.loop.run_until_complete(server.start())
        try:
            self.drive(server, per_client=1)  # analysis caches are already warm
            return fn(server)
        finally:
            self.loop.run_until_complete(server.stop())

    def run(self, seconds: float, modes: Sequence[str] = ("plain",)) -> Dict[str, OpLog]:
        logs: Dict[str, OpLog] = {}
        share = seconds / len(modes)
        for mode in modes:
            if mode == "plain":
                logs[mode] = self.drive(self.server, seconds=share)
            elif mode == "tracer":
                sink = RingBufferSink(capacity=1 << 20)
                log = self.with_server(
                    lambda s: self.drive(s, seconds=share), tracer=Tracer(sink))
                log.extra["trace"] = sink.spans()
                logs[mode] = log
            else:
                raise ValueError(f"serve workloads have no {mode!r} mode")
        return logs

    def verify(self, log: OpLog) -> int:
        wrong = 0
        for algorithm, source, value in log.outputs:
            if not oracles.matches(value, self.reference[algorithm][source]):
                wrong += 1
        return wrong


class ServeSolo(ServeWorkload):
    name = "serve-solo"
    why = ("one client, nothing to merge: the 2 ms batch window and the admission/thread "
           "hop are pure latency (ROADMAP conviction 3)")


class ServeBurst(ServeWorkload):
    name = "serve-burst"
    why = ("16 clients on the same server: the window and the multisource dict kernels "
           "are supposed to pay here, so a change that helps serve-solo must not cost this")


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (VecDense, VecSparse, MpDense, OocoreDense, OocoreSparse,
                ServeSolo, ServeBurst)
}
