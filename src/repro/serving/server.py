"""The graph-as-a-service front end: a long-lived asyncio server over
one resident graph.

Architecture (see ``docs/serving.md``)::

    submit() ──► admission queue ──► dispatcher ──► worker engines
       │   (depth limit, deadlines)  (batching)     (thread pool)
       └── result cache probe                         │
             ▲                                        │
             └──────────── demultiplexed results ◄────┘

* The **graph is resident**: the CSR is built once and shared by a small
  pool of :class:`~repro.core.engine.FlashEngine` workers whose vertex
  columns persist across requests (scratch properties are dropped after
  every lease, so consecutive requests never collide).
* The **admission queue** bounds outstanding work: a full queue rejects
  with :class:`~repro.errors.QueueFullError` *before* enqueueing, and a
  request whose deadline passes while queued is dropped with
  :class:`~repro.errors.DeadlineExpiredError` *before* any execution.
* The **dispatcher** merges compatible batchable requests (equal
  ``batch_key``) arriving within ``batch_window`` seconds — up to
  ``max_batch`` — into one multi-source run and demultiplexes per-client
  results.
* The **result cache** is keyed by ``(graph_version, algorithm,
  params)``; ``bump_graph_version()`` makes every prior entry
  unreachable (and purges it), so stale results are never served.
* **Metrics** (latency percentiles, throughput, batch occupancy, cache
  hit rate, rejections) accumulate in :class:`ServingMetrics` and are
  exported through the PR-3 tracing layer: ``serve.request`` spans,
  ``serve.batch`` spans, ``serve.reject`` / ``serve.cache_hit``
  instants, and one final ``serve.metrics`` snapshot instant at stop.
"""

from __future__ import annotations

import asyncio
import queue as thread_queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.config import EngineConfig, current_config, use_config
from repro.core.engine import FlashEngine
from repro.errors import (
    DeadlineExpiredError,
    DistributedError,
    EngineFailureError,
    QueueFullError,
    ServerClosedError,
)
from repro.graph.graph import Graph
from repro.runtime.tracing import NULL_TRACER, Tracer
from repro.serving.cache import ResultCache
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ServedAlgorithm, build_registry, resolve


@dataclass
class QueryResult:
    """What a client gets back from :meth:`GraphServer.submit`."""

    algorithm: str
    params: Dict[str, Any]
    value: Any
    latency: float
    graph_version: int
    cached: bool = False
    batched: bool = False
    batch_size: int = 1


@dataclass
class _Pending:
    """One admitted request waiting for execution."""

    algo: ServedAlgorithm
    params: Dict[str, Any]
    future: "asyncio.Future[QueryResult]"
    submitted: float
    deadline_at: Optional[float]
    span: Any = None
    batch_key: Hashable = field(default=None)
    #: Set when the request was requeued after an engine failure; a
    #: second failure errors out instead of retrying forever.
    retried: bool = False


class GraphServer:
    """Serve concurrent graph queries from one resident graph.

    Usage::

        async with GraphServer(graph, engine_pool=2) as server:
            result = await server.submit("bfs-from-source", {"source": 3})

    All knobs are constructor parameters; ``batching`` / ``caching``
    exist so benchmarks can ablate each independently.  The engines'
    settings are resolved once, here: ``num_workers`` / ``backend``
    (``None`` = ambient) over :func:`~repro.core.config.current_config`,
    and every pooled or replacement engine is built from that record.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        num_workers: Optional[int] = None,
        engine_pool: int = 2,
        backend: Optional[str] = None,
        queue_depth: int = 64,
        batch_window: float = 0.002,
        max_batch: int = 16,
        batching: bool = True,
        caching: bool = True,
        cache_capacity: int = 4096,
        artifact_cache_capacity: int = 64,
        default_deadline: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ):
        if engine_pool < 1:
            raise ValueError("engine_pool must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.graph = graph
        self.config: EngineConfig = current_config().override(
            num_workers=num_workers, backend=backend
        )
        self.engine_pool = engine_pool
        self.queue_depth = queue_depth
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.batching = batching
        self.caching = caching
        self.default_deadline = default_deadline
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry: Dict[str, ServedAlgorithm] = build_registry()
        self.cache = ResultCache(capacity=cache_capacity)
        self.artifact_cache = ResultCache(capacity=artifact_cache_capacity)
        self.metrics = ServingMetrics()
        self._graph_version = 0
        self._running = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._paused: Optional[asyncio.Event] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._inflight: set = set()
        self._holdover: "deque[_Pending]" = deque()
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Pooled engines as (slot, engine); the slot index keys the
        #: health map so replacements stay attributable.
        self._engines: "thread_queue.Queue[Tuple[int, FlashEngine]]" = thread_queue.Queue()
        #: Per-slot health: "ok" | "replaced" | "failed" (failed slots
        #: are permanently out of the pool — degraded mode).
        self._engine_health: Dict[int, str] = {}
        #: Chaos hook: batches left to fail with EngineFailureError.
        self._induced_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "GraphServer":
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._paused = asyncio.Event()
        self._paused.set()
        self._slots = asyncio.Semaphore(self.engine_pool)
        self._executor = ThreadPoolExecutor(
            max_workers=self.engine_pool, thread_name_prefix="repro-serve"
        )
        for slot in range(self.engine_pool):
            self._engines.put((slot, self._build_engine()))
            self._engine_health[slot] = "ok"
        self._running = True
        self.metrics.mark_started()
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> Dict[str, Any]:
        """Stop accepting requests, drain in-flight work, fail whatever
        is still queued, release engines; returns the final snapshot."""
        if not self._running:
            return self.metrics_snapshot()
        self._running = False
        if self._paused is not None:
            self._paused.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        pending = self._drain_pending()
        # A request requeued by an engine failure already started once;
        # failing it now would surface the engine's death to the client.
        # Drain those through a final execution round instead.
        for req in pending:
            if req.retried and not req.future.done():
                await self._execute_batch([req])
        closed = ServerClosedError("server stopped before the request ran")
        for req in pending:
            if not req.future.done():
                req.future.set_exception(closed)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        while not self._engines.empty():
            self._engines.get_nowait()[1].close()
        self.metrics.mark_stopped()
        snapshot = self.metrics_snapshot()
        if self.tracer.enabled:
            self.tracer.instant("serve.metrics", "serving", **snapshot)
        return snapshot

    def _drain_pending(self) -> List[_Pending]:
        pending = list(self._holdover)
        self._holdover.clear()
        if self._queue is not None:
            while True:
                try:
                    pending.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
        return pending

    async def __aenter__(self) -> "GraphServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # Test/inspection hooks: freeze the dispatcher so the queue fills.
    def pause(self) -> None:
        if self._paused is not None:
            self._paused.clear()

    def resume(self) -> None:
        if self._paused is not None:
            self._paused.set()

    # ------------------------------------------------------------------
    # Graph versioning
    # ------------------------------------------------------------------
    @property
    def graph_version(self) -> int:
        return self._graph_version

    def bump_graph_version(self, purge: bool = True) -> int:
        """Declare the resident graph updated: every cached result and
        artifact belonging to older versions becomes unreachable (the
        version is part of the cache key) and, with ``purge``, is
        dropped immediately."""
        self._graph_version += 1
        if purge:
            self.cache.purge_older_than(self._graph_version)
            self.artifact_cache.purge_older_than(self._graph_version)
        if self.tracer.enabled:
            self.tracer.instant(
                "serve.graph_version", "serving", version=self._graph_version
            )
        return self._graph_version

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        algorithm: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Submit one query and await its result.

        Raises :class:`UnknownAlgorithmError` / :class:`InvalidRequestError`
        on a malformed request, :class:`QueueFullError` when the
        admission queue is at depth, and :class:`DeadlineExpiredError`
        when ``deadline`` (seconds, relative) passes before execution
        starts.
        """
        if not self._running or self._loop is None:
            raise ServerClosedError("server is not running; use 'async with' or start()")
        algo = resolve(self.registry, algorithm)
        canon = algo.canonicalize(params, self.graph.num_vertices)
        now = self._loop.time()
        version = self._graph_version
        if self.caching:
            value, hit = self.cache.lookup(version, algo.name, algo.cache_params(canon))
            if hit:
                latency = self._loop.time() - now
                self.metrics.record_request(algo.name, "cache_hit", latency)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "serve.cache_hit", "serving", algorithm=algo.name
                    )
                return QueryResult(
                    algorithm=algo.name,
                    params=canon,
                    value=value,
                    latency=latency,
                    graph_version=version,
                    cached=True,
                )
        effective_deadline = deadline if deadline is not None else self.default_deadline
        pending = _Pending(
            algo=algo,
            params=canon,
            future=self._loop.create_future(),
            submitted=now,
            deadline_at=(now + effective_deadline) if effective_deadline else None,
            span=self.tracer.start("serve.request", "serving", algorithm=algo.name)
            if self.tracer.enabled
            else None,
            batch_key=algo.batch_key(canon),
        )
        assert self._queue is not None
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.metrics.record_request(algo.name, "rejected_queue_full")
            if self.tracer.enabled:
                self.tracer.instant(
                    "serve.reject", "serving", algorithm=algo.name, reason="queue_full"
                )
            if pending.span is not None:
                pending.span.end(status="rejected_queue_full")
            raise QueueFullError(
                f"admission queue full (depth {self.queue_depth}); "
                f"request {algo.name} rejected"
            ) from None
        return await pending.future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _expired(self, req: _Pending) -> bool:
        assert self._loop is not None
        return req.deadline_at is not None and self._loop.time() > req.deadline_at

    def _reject_deadline(self, req: _Pending) -> None:
        self.metrics.record_request(req.algo.name, "rejected_deadline")
        if self.tracer.enabled:
            self.tracer.instant(
                "serve.reject", "serving", algorithm=req.algo.name, reason="deadline"
            )
        if req.span is not None:
            req.span.end(status="rejected_deadline")
        if not req.future.done():
            req.future.set_exception(
                DeadlineExpiredError(
                    f"{req.algo.name} request deadline expired before execution"
                )
            )

    def _pop_holdover(self, key: Hashable) -> Optional[_Pending]:
        for i, cand in enumerate(self._holdover):
            if cand.batch_key == key:
                del self._holdover[i]
                return cand
        return None

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None and self._queue is not None
        assert self._paused is not None and self._slots is not None
        while True:
            await self._paused.wait()
            if self._holdover:
                req = self._holdover.popleft()
            else:
                req = await self._queue.get()
            if self._expired(req):
                self._reject_deadline(req)
                continue
            batch = [req]
            key = req.batch_key
            if self.batching and key is not None and self.max_batch > 1:
                window_end = self._loop.time() + self.batch_window
                while len(batch) < self.max_batch:
                    mate = self._pop_holdover(key)
                    if mate is None:
                        timeout = window_end - self._loop.time()
                        if timeout <= 0:
                            break
                        try:
                            mate = await asyncio.wait_for(self._queue.get(), timeout)
                        except asyncio.TimeoutError:
                            break
                    if self._expired(mate):
                        self._reject_deadline(mate)
                        continue
                    if mate.batch_key == key:
                        batch.append(mate)
                    else:
                        self._holdover.append(mate)
            await self._slots.acquire()
            task = self._loop.create_task(self._execute_batch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._batch_done)

    def _batch_done(self, task: "asyncio.Task[None]") -> None:
        self._inflight.discard(task)
        if self._slots is not None:
            self._slots.release()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _execute_batch(self, batch: List[_Pending]) -> None:
        assert self._loop is not None
        live = []
        for req in batch:
            if self._expired(req):
                self._reject_deadline(req)
            else:
                live.append(req)
        if not live:
            return
        algo = live[0].algo
        version = self._graph_version
        span = (
            self.tracer.start(
                "serve.batch", "serving", algorithm=algo.name, occupancy=len(live)
            )
            if self.tracer.enabled
            else None
        )
        try:
            values, supersteps = await self._loop.run_in_executor(
                self._executor,
                self._run_batch,
                algo,
                [req.params for req in live],
                version,
            )
        except (EngineFailureError, DistributedError) as exc:
            # The engine died mid-batch (its worker processes crashed or
            # a chaos hook killed it).  The lease already replaced it;
            # requeue each first-time request once instead of surfacing
            # the engine's death to the client.
            retry: List[_Pending] = []
            for req in live:
                if self._running and not req.retried and not req.future.done():
                    retry.append(req)
                else:
                    self.metrics.record_request(algo.name, "error")
                    if req.span is not None:
                        req.span.end(status="error")
                    if not req.future.done():
                        req.future.set_exception(exc)
            for req in retry:
                req.retried = True
                self.metrics.record_request(algo.name, "requeued")
                if self.tracer.enabled:
                    self.tracer.instant(
                        "serve.requeue", "serving", algorithm=algo.name
                    )
                self._requeue(req)
            if span is not None:
                span.end(status="engine_failure", requeued=len(retry))
            return
        except Exception as exc:  # surfaced to every waiting client
            for req in live:
                self.metrics.record_request(algo.name, "error")
                if req.span is not None:
                    req.span.end(status="error")
                if not req.future.done():
                    req.future.set_exception(exc)
            if span is not None:
                span.end(status="error")
            return
        now = self._loop.time()
        batched = len(live) > 1
        for req, value in zip(live, values):
            latency = now - req.submitted
            self.metrics.record_request(algo.name, "ok", latency)
            if req.span is not None:
                req.span.end(status="ok", batched=batched)
            if not req.future.done():
                req.future.set_result(
                    QueryResult(
                        algorithm=algo.name,
                        params=req.params,
                        value=value,
                        latency=latency,
                        graph_version=version,
                        batched=batched,
                        batch_size=len(live),
                    )
                )
        self.metrics.record_batch(len(live), supersteps)
        if span is not None:
            span.end(status="ok", supersteps=supersteps)

    def _requeue(self, req: _Pending) -> None:
        """Re-admit a request whose engine failed.  Prefer the asyncio
        queue (it wakes the dispatcher); fall back to the holdover deque
        when the queue is at depth — a full queue guarantees the
        dispatcher has work and will sweep the holdover next."""
        assert self._queue is not None
        try:
            self._queue.put_nowait(req)
        except asyncio.QueueFull:
            self._holdover.append(req)

    def _build_engine(self) -> FlashEngine:
        with use_config(self.config):
            return FlashEngine(self.graph)

    def _pool_size(self) -> int:
        return sum(1 for s in self._engine_health.values() if s != "failed")

    def _replace_engine(self, slot: int, engine: FlashEngine) -> None:
        """The engine in ``slot`` failed: close it and put a fresh one in
        its place.  If even building a replacement fails, the slot is
        retired and the pool keeps serving at reduced capacity."""
        try:
            engine.close()
        except Exception:
            pass
        try:
            replacement = self._build_engine()
        except Exception:
            self._engine_health[slot] = "failed"
            self.metrics.record_engine_failure(replaced=False)
            if self.tracer.enabled:
                self.tracer.instant(
                    "serve.engine_lost", "serving",
                    slot=slot, pool_size=self._pool_size(),
                )
            return
        self._engine_health[slot] = "replaced"
        self.metrics.record_engine_failure(replaced=True)
        self._engines.put((slot, replacement))
        if self.tracer.enabled:
            self.tracer.instant("serve.engine_replaced", "serving", slot=slot)

    @contextmanager
    def _lease_engine(self):
        """Borrow a pooled resident engine; on return, drop every
        property the run added so the next lease starts clean.  A lease
        that raises an engine-failure error (crashed worker processes,
        induced chaos) swaps a fresh engine into the slot instead of
        returning the broken one."""
        if self._pool_size() == 0:
            raise ServerClosedError(
                "every pooled engine has failed and could not be replaced"
            )
        slot, engine = self._engines.get()
        base = set(engine.flashware.state.property_names)
        try:
            yield engine
        except (EngineFailureError, DistributedError):
            self._replace_engine(slot, engine)
            raise
        except BaseException:
            # Algorithm-level errors leave the engine healthy: scrub the
            # scratch properties and return it to the pool.
            for name in list(engine.flashware.state.property_names):
                if name not in base:
                    engine.drop_property(name)
            self._engines.put((slot, engine))
            raise
        else:
            for name in list(engine.flashware.state.property_names):
                if name not in base:
                    engine.drop_property(name)
            self._engines.put((slot, engine))

    def inject_engine_failure(self, count: int = 1) -> None:
        """Chaos hook: make the next ``count`` executed batches fail with
        :class:`EngineFailureError`, exercising the replace-and-requeue
        path exactly like a real engine death would."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._induced_failures = count

    def _run_batch(
        self,
        algo: ServedAlgorithm,
        params_list: List[Dict[str, Any]],
        version: int,
    ) -> Tuple[List[Any], int]:
        """Worker-thread entry: execute one (possibly merged) batch and
        return per-request values plus engine supersteps spent."""
        with self._lease_engine() as engine:
            if self._induced_failures > 0:
                self._induced_failures -= 1
                raise EngineFailureError(
                    "induced engine failure (chaos hook)"
                )
            steps_before = engine.metrics.num_supersteps
            if algo.artifact is not None:
                values = [
                    self._run_derived(algo, engine, params, version)
                    for params in params_list
                ]
            else:
                values = self._run_direct(algo, engine, params_list)
            supersteps = engine.metrics.num_supersteps - steps_before
        if self.caching:
            for params, value in zip(params_list, values):
                self.cache.put(version, algo.name, algo.cache_params(params), value)
        return values, supersteps

    def _run_derived(
        self,
        algo: ServedAlgorithm,
        engine: FlashEngine,
        params: Dict[str, Any],
        version: int,
    ) -> Any:
        akey = algo.artifact_key(params)
        artifact, hit = (None, False)
        if self.caching:
            artifact, hit = self.artifact_cache.lookup(version, algo.artifact, akey)
        if not hit:
            artifact = algo.compute_artifact(engine, params)
            if self.caching:
                self.artifact_cache.put(version, algo.artifact, akey, artifact)
        return algo.extract(artifact, params)

    def _run_direct(
        self,
        algo: ServedAlgorithm,
        engine: FlashEngine,
        params_list: List[Dict[str, Any]],
    ) -> List[Any]:
        if len(params_list) == 1:
            return [algo.run_single(engine, params_list[0])]
        # Duplicate requests (same canonical params) share one slot of
        # the merged run and are demultiplexed afterwards.
        index: Dict[Hashable, int] = {}
        unique: List[Dict[str, Any]] = []
        for params in params_list:
            cp = algo.cache_params(params)
            if cp not in index:
                index[cp] = len(unique)
                unique.append(params)
        if len(unique) == 1:
            base = [algo.run_single(engine, unique[0])]
        else:
            base = algo.run_multi(engine, unique)
        return [base[index[algo.cache_params(p)]] for p in params_list]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """Serving metrics + cache statistics + engine-pool health,
        JSON-friendly."""
        snap = self.metrics.snapshot(
            cache_stats={
                "results": self.cache.stats(),
                "artifacts": self.artifact_cache.stats(),
            }
        )
        snap["engines"].update(
            {
                "pool_size": self._pool_size(),
                "degraded": self._pool_size() < self.engine_pool,
                "health": {
                    str(slot): status
                    for slot, status in sorted(self._engine_health.items())
                },
            }
        )
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"GraphServer({self.graph!r}, pool={self.engine_pool}, "
            f"batching={self.batching}, caching={self.caching}, "
            f"version={self._graph_version})"
        )
