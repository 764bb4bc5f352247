"""Closed-loop load generator for :class:`~repro.serving.server.GraphServer`.

Each simulated client owns a deterministic RNG and issues its requests
*sequentially* (closed loop: the next request is not sent until the
previous one resolves), so offered load scales with client concurrency
exactly the way the serving benchmark sweeps it.  The generator is
shared by ``repro serve`` (CLI) and ``benchmarks/bench_serving.py``.

A workload is a ``{algorithm: weight}`` mix.  Source-parameterized
queries draw their source from a small "hot set" with probability
``hot_fraction`` (this is what gives the result cache something to hit)
and uniformly at random otherwise.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Optional

from repro.errors import DeadlineExpiredError, QueueFullError, ServingError
from repro.graph.graph import Graph
from repro.runtime.tracing import Tracer
from repro.serving.metrics import percentile
from repro.serving.server import GraphServer

#: Named request mixes.  ``batchable`` is the mix the batching benchmark
#: sweeps (single-source queries only, so every request can merge);
#: ``mixed`` adds the derived whole-graph queries.
WORKLOADS: Dict[str, Dict[str, float]] = {
    "batchable": {"bfs-from-source": 0.6, "sssp": 0.4},
    "bfs": {"bfs-from-source": 1.0},
    "sssp": {"sssp": 1.0},
    "ppr": {"ppr-for-user": 1.0},
    "mixed": {
        "bfs-from-source": 0.35,
        "sssp": 0.25,
        "ppr-for-user": 0.2,
        "pagerank-top-k": 0.1,
        "cc-membership": 0.1,
    },
}


def _pick(rng: random.Random, mix: Dict[str, float]) -> str:
    total = sum(mix.values())
    roll = rng.random() * total
    acc = 0.0
    for name, weight in mix.items():
        acc += weight
        if roll <= acc:
            return name
    return name  # pragma: no cover - float edge


def _make_params(
    rng: random.Random,
    algorithm: str,
    num_vertices: int,
    hot: List[int],
    hot_fraction: float,
) -> Dict[str, Any]:
    def source() -> int:
        if hot and rng.random() < hot_fraction:
            return rng.choice(hot)
        return rng.randrange(num_vertices)

    if algorithm in ("bfs-from-source", "sssp"):
        return {"source": source()}
    if algorithm == "ppr-for-user":
        return {"seed": source()}
    if algorithm == "pagerank-top-k":
        return {"k": 10}
    if algorithm == "cc-membership":
        return {"vertex": source()}
    return {}


async def _client(
    server: GraphServer,
    client_id: int,
    num_requests: int,
    mix: Dict[str, float],
    seed: int,
    hot: List[int],
    hot_fraction: float,
    deadline: Optional[float],
    latencies: List[float],
    outcomes: Dict[str, int],
) -> None:
    rng = random.Random((seed << 16) ^ client_id)
    n = server.graph.num_vertices
    for _ in range(num_requests):
        algorithm = _pick(rng, mix)
        params = _make_params(rng, algorithm, n, hot, hot_fraction)
        t0 = time.perf_counter()
        try:
            result = await server.submit(algorithm, params, deadline=deadline)
        except QueueFullError:
            outcomes["rejected_queue_full"] = outcomes.get("rejected_queue_full", 0) + 1
        except DeadlineExpiredError:
            outcomes["rejected_deadline"] = outcomes.get("rejected_deadline", 0) + 1
        except ServingError:
            outcomes["error"] = outcomes.get("error", 0) + 1
        else:
            latencies.append(time.perf_counter() - t0)
            status = "cache_hit" if result.cached else "ok"
            outcomes[status] = outcomes.get(status, 0) + 1


async def run_load_async(
    graph: Graph,
    *,
    clients: int = 8,
    requests_per_client: int = 8,
    workload: str = "batchable",
    mix: Optional[Dict[str, float]] = None,
    batching: bool = True,
    caching: bool = True,
    batch_window: float = 0.002,
    max_batch: int = 16,
    queue_depth: Optional[int] = None,
    engine_pool: int = 2,
    num_workers: Optional[int] = None,
    backend: Optional[str] = None,
    deadline: Optional[float] = None,
    hot_set_size: int = 4,
    hot_fraction: float = 0.5,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Drive ``clients`` closed-loop clients against a fresh server and
    return a JSON-friendly report (client-observed latencies + the
    server's own metrics snapshot)."""
    if mix is None:
        mix = WORKLOADS[workload]
    depth = queue_depth if queue_depth is not None else max(2 * clients, 8)
    rng = random.Random(seed)
    n = graph.num_vertices
    hot = sorted(rng.sample(range(n), min(hot_set_size, n))) if n else []
    latencies: List[float] = []
    outcomes: Dict[str, int] = {}
    server = GraphServer(
        graph,
        num_workers=num_workers,
        engine_pool=engine_pool,
        backend=backend,
        queue_depth=depth,
        batch_window=batch_window,
        max_batch=max_batch,
        batching=batching,
        caching=caching,
        tracer=tracer,
    )
    async with server:
        t0 = time.perf_counter()
        await asyncio.gather(
            *[
                _client(
                    server,
                    cid,
                    requests_per_client,
                    mix,
                    seed,
                    hot,
                    hot_fraction,
                    deadline,
                    latencies,
                    outcomes,
                )
                for cid in range(clients)
            ]
        )
        wall = time.perf_counter() - t0
        snapshot = server.metrics_snapshot()
    ordered = sorted(latencies)
    completed = len(ordered)
    return {
        "config": {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "workload": workload if mix is WORKLOADS.get(workload) else "custom",
            "mix": dict(mix),
            "batching": batching,
            "caching": caching,
            "batch_window_s": batch_window,
            "max_batch": max_batch,
            "queue_depth": depth,
            "engine_pool": engine_pool,
            "num_workers": server.config.num_workers,
            "backend": server.config.backend,
            "deadline_s": deadline,
            "hot_set_size": hot_set_size,
            "hot_fraction": hot_fraction,
            "seed": seed,
        },
        "wall_s": round(wall, 6),
        "completed": completed,
        "throughput_rps": round(completed / wall, 3) if wall > 0 else 0.0,
        "client_latency_ms": {
            "p50": round(percentile(ordered, 0.50) * 1e3, 3),
            "p90": round(percentile(ordered, 0.90) * 1e3, 3),
            "p99": round(percentile(ordered, 0.99) * 1e3, 3),
            "max": round(ordered[-1] * 1e3, 3) if ordered else 0.0,
        },
        "outcomes": outcomes,
        "server": snapshot,
    }


def run_load(graph: Graph, **kwargs: Any) -> Dict[str, Any]:
    """Synchronous wrapper around :func:`run_load_async`."""
    return asyncio.run(run_load_async(graph, **kwargs))
