"""Graph-as-a-service tests: versioned result cache, admission control,
request batching, serving metrics, engine context manager, CLI smoke.

The async pieces run under ``asyncio.run`` inside plain test functions.
``GraphServer.pause()`` freezes the dispatcher at the top of its loop,
making queue-full and deadline-expiry deterministic.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import algorithms as A
from repro.core.engine import FlashEngine
from repro.errors import (
    DeadlineExpiredError,
    EngineFailureError,
    InvalidRequestError,
    QueueFullError,
    ServerClosedError,
    ServingError,
    UnknownAlgorithmError,
)
from repro.graph.generators import social_network
from repro.serving import (
    GraphServer,
    ResultCache,
    ServingMetrics,
    build_registry,
    canonical_params,
    multi_bfs,
    percentile,
)
from repro.serving.loadgen import run_load


@pytest.fixture(scope="module")
def graph():
    return social_network(num_vertices=80, seed=11)


def serve(graph, coro_fn, **server_kwargs):
    """Run ``coro_fn(server)`` against a fresh started server."""
    kwargs = dict(engine_pool=1, num_workers=2)
    kwargs.update(server_kwargs)

    async def main():
        async with GraphServer(graph, **kwargs) as server:
            return await coro_fn(server)

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip_and_miss(self):
        cache = ResultCache(capacity=4)
        key = canonical_params({"source": 3})
        assert cache.lookup(0, "bfs", key) == (None, False)
        cache.put(0, "bfs", key, [1, 2, 3])
        assert cache.lookup(0, "bfs", key) == ([1, 2, 3], True)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_version_is_part_of_the_key(self):
        cache = ResultCache()
        key = canonical_params({"source": 3})
        cache.put(0, "bfs", key, "v0-result")
        # Same algorithm + params at a newer version: never served.
        assert cache.lookup(1, "bfs", key) == (None, False)
        assert cache.lookup(0, "bfs", key) == ("v0-result", True)

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(0, "a", 1, "one")
        cache.put(0, "a", 2, "two")
        cache.lookup(0, "a", 1)  # touch 1 -> 2 becomes LRU
        cache.put(0, "a", 3, "three")
        assert cache.lookup(0, "a", 2) == (None, False)
        assert cache.lookup(0, "a", 1) == ("one", True)
        assert cache.evictions == 1

    def test_invalidate_by_version_and_algorithm(self):
        cache = ResultCache()
        cache.put(0, "bfs", 1, "a")
        cache.put(0, "sssp", 1, "b")
        cache.put(1, "bfs", 1, "c")
        assert cache.invalidate(graph_version=0, algorithm="bfs") == 1
        assert cache.lookup(0, "sssp", 1)[1]
        assert cache.invalidate(algorithm="bfs") == 1  # the v1 entry
        assert cache.invalidate() == 1  # everything left
        assert len(cache) == 0

    def test_purge_older_than(self):
        cache = ResultCache()
        for version in (0, 1, 2):
            cache.put(version, "bfs", 1, version)
        assert cache.purge_older_than(2) == 2
        assert cache.lookup(2, "bfs", 1) == (2, True)

    def test_cached_none_is_a_hit(self):
        cache = ResultCache()
        cache.put(0, "x", 1, None)
        assert cache.lookup(0, "x", 1) == (None, True)

    def test_canonical_params_order_independent(self):
        a = canonical_params({"b": 2, "a": [3, 1]})
        b = canonical_params({"a": {1, 3}, "b": 2})
        assert a == b == (("a", (1, 3)), ("b", 2))


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
def test_queue_full_rejects_with_typed_error(graph):
    async def scenario(server):
        server.pause()  # dispatcher parked: submissions stay queued
        first = asyncio.ensure_future(server.submit("bfs-from-source", {"source": 0}))
        second = asyncio.ensure_future(server.submit("bfs-from-source", {"source": 1}))
        await asyncio.sleep(0)  # let both enqueue
        with pytest.raises(QueueFullError):
            await server.submit("bfs-from-source", {"source": 2})
        assert server.metrics.counts["rejected_queue_full"] == 1
        server.resume()
        results = await asyncio.gather(first, second)
        return results

    results = serve(graph, scenario, queue_depth=2, caching=False)
    assert results[0].value[0] == 0 and results[1].value[1] == 0


def test_deadline_expired_dropped_before_execution(graph):
    async def scenario(server):
        server.pause()
        doomed = asyncio.ensure_future(
            server.submit("bfs-from-source", {"source": 0}, deadline=0.01)
        )
        await asyncio.sleep(0.05)  # deadline passes while queued
        server.resume()
        with pytest.raises(DeadlineExpiredError):
            await doomed
        assert server.metrics.counts["rejected_deadline"] == 1
        assert server.metrics.counts["ok"] == 0  # never executed
        # The server still works afterwards.
        ok = await server.submit("bfs-from-source", {"source": 0})
        return ok

    result = serve(graph, scenario, caching=False)
    assert result.value[0] == 0


def test_submit_on_stopped_server_raises():
    graph = social_network(num_vertices=20, seed=0)

    async def main():
        server = GraphServer(graph, engine_pool=1, num_workers=2)
        with pytest.raises(ServerClosedError):
            await server.submit("bfs-from-source")
        await server.start()
        await server.stop()
        with pytest.raises(ServerClosedError):
            await server.submit("bfs-from-source")

    asyncio.run(main())


def test_invalid_requests_fail_fast(graph):
    async def scenario(server):
        with pytest.raises(UnknownAlgorithmError):
            await server.submit("nope")
        with pytest.raises(InvalidRequestError):
            await server.submit("bfs-from-source", {"source": 10**6})
        with pytest.raises(InvalidRequestError):
            await server.submit("bfs-from-source", {"sauce": 1})
        with pytest.raises(InvalidRequestError):
            await server.submit("ppr-for-user", {})  # no seeds
        with pytest.raises(InvalidRequestError):
            await server.submit("ppr-for-user", {"seed": 1, "seeds": [2]})
        with pytest.raises(InvalidRequestError):
            await server.submit("pagerank-top-k", {"damping": 1.5})
        assert isinstance(UnknownAlgorithmError("x"), ServingError)
        return True

    assert serve(graph, scenario)


def test_non_integral_parameters_rejected_not_truncated(graph):
    """``int()`` would answer ``source=3.7`` for vertex 3 and ``True`` for
    vertex 1; integral floats and integer strings stay accepted."""
    registry, n = build_registry(), graph.num_vertices
    for name, params in [("bfs-from-source", {"source": 3.7}),
                         ("bfs-from-source", {"source": True}),
                         ("cc-membership", {"vertex": 2.5}),
                         ("ppr-for-user", {"seed": 1, "iters": 2.9}),
                         ("ppr-for-user", {"seed": 1, "k": 1.5}),
                         ("ppr-for-user", {"seeds": [1, False]})]:
        with pytest.raises(InvalidRequestError, match="must be an integer"):
            registry[name].canonicalize(params, n)
    for source in (3, 3.0, "3"):
        assert registry["bfs-from-source"].canonicalize({"source": source}, n) == {"source": 3}
    engine = FlashEngine(graph, num_workers=2)
    with pytest.raises(InvalidRequestError, match="must be an integer"):
        multi_bfs(engine, [0, 1.5])


# ---------------------------------------------------------------------------
# Versioned caching through the server
# ---------------------------------------------------------------------------
def test_cache_hit_and_explicit_invalidation(graph):
    async def scenario(server):
        first = await server.submit("bfs-from-source", {"source": 5})
        assert not first.cached
        second = await server.submit("bfs-from-source", {"source": 5})
        assert second.cached and second.value == first.value
        assert server.metrics.counts["cache_hit"] == 1
        dropped = server.cache.invalidate(algorithm="bfs-from-source")
        assert dropped >= 1
        third = await server.submit("bfs-from-source", {"source": 5})
        assert not third.cached
        return True

    assert serve(graph, scenario)


def test_stale_graph_version_never_served(graph):
    async def scenario(server):
        algo = server.registry["bfs-from-source"]
        params = algo.canonicalize({"source": 5}, graph.num_vertices)
        # Poison version 0 with a sentinel; a hit must return it.
        server.cache.put(0, algo.name, algo.cache_params(params), "stale!")
        poisoned = await server.submit("bfs-from-source", {"source": 5})
        assert poisoned.cached and poisoned.value == "stale!"
        # After a graph-version bump the stale entry is unreachable.
        server.bump_graph_version()
        fresh = await server.submit("bfs-from-source", {"source": 5})
        assert not fresh.cached
        assert fresh.value != "stale!" and fresh.value[5] == 0
        assert fresh.graph_version == 1
        # ... and purged outright (bounded memory).
        assert server.cache.lookup(0, algo.name, algo.cache_params(params)) \
            == (None, False)
        return True

    assert serve(graph, scenario)


def test_artifact_shared_across_derived_requests(graph):
    async def scenario(server):
        a = await server.submit("pagerank-top-k", {"k": 3})
        b = await server.submit("cc-membership", {"vertex": 7})
        c = await server.submit("pagerank-top-k", {"k": 5})  # same artifact
        assert len(a.value) == 3 and len(c.value) == 5
        assert a.value == c.value[:3]
        assert b.value["vertex"] == 7
        assert server.artifact_cache.hits >= 1
        return True

    assert serve(graph, scenario)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------
def test_batched_results_match_single_source_runs(graph):
    sources = [2, 9, 31, 44]

    async def scenario(server):
        server.pause()
        futures = [
            asyncio.ensure_future(server.submit("sssp", {"source": s}))
            for s in sources
        ]
        await asyncio.sleep(0)
        server.resume()
        return await asyncio.gather(*futures)

    results = serve(graph, scenario, caching=False, batch_window=0.2)
    assert all(r.batched and r.batch_size == len(sources) for r in results)
    for source, result in zip(sources, results):
        with FlashEngine(graph, num_workers=2) as eng:
            expected = list(A.sssp(eng, root=source).values)
        assert result.value == expected, source


def test_incompatible_requests_do_not_merge(graph):
    async def scenario(server):
        server.pause()
        bfs = asyncio.ensure_future(server.submit("bfs-from-source", {"source": 1}))
        sssp = asyncio.ensure_future(server.submit("sssp", {"source": 1}))
        await asyncio.sleep(0)
        server.resume()
        return await asyncio.gather(bfs, sssp)

    results = serve(graph, scenario, caching=False, batch_window=0.05)
    assert all(r.batch_size == 1 for r in results)
    assert results[0].algorithm == "bfs-from-source"
    assert results[1].algorithm == "sssp"


def test_batching_disabled_runs_individually(graph):
    sources = [2, 9, 31]

    async def scenario(server):
        futures = [
            asyncio.ensure_future(server.submit("sssp", {"source": s}))
            for s in sources
        ]
        return await asyncio.gather(*futures)

    results = serve(graph, scenario, caching=False, batching=False)
    assert all(not r.batched and r.batch_size == 1 for r in results)
    snapshot_occupancy = max(r.batch_size for r in results)
    assert snapshot_occupancy == 1


def test_duplicate_requests_share_one_run(graph):
    async def scenario(server):
        server.pause()
        futures = [
            asyncio.ensure_future(server.submit("bfs-from-source", {"source": 4}))
            for _ in range(3)
        ]
        await asyncio.sleep(0)
        server.resume()
        results = await asyncio.gather(*futures)
        return results, server.metrics_snapshot()

    results, snap = serve(graph, scenario, caching=False, batch_window=0.2)
    assert len({tuple(r.value) for r in results}) == 1
    assert snap["batches"]["executed"] == 1
    assert snap["batches"]["occupancy_max"] == 3


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 0.50) == 51.0  # nearest rank round(0.5 * 99)
    assert percentile(values, 0.99) == 99.0


def test_serving_metrics_snapshot():
    metrics = ServingMetrics()
    metrics.mark_started()
    metrics.record_request("bfs-from-source", "ok", 0.010)
    metrics.record_request("bfs-from-source", "cache_hit", 0.001)
    metrics.record_request("sssp", "rejected_queue_full")
    metrics.record_batch(3, supersteps=7)
    metrics.mark_stopped()
    snap = metrics.snapshot()
    assert snap["completed"] == 2
    assert snap["requests"]["rejected_queue_full"] == 1
    assert snap["per_algorithm"]["bfs-from-source"]["ok"] == 1
    assert snap["batches"] == {
        "executed": 1, "merged": 1, "occupancy_mean": 3.0, "occupancy_max": 3,
    }
    assert snap["engine_supersteps"] == 7
    assert snap["latency_ms"]["p50"] > 0
    assert snap["throughput_rps"] > 0
    with pytest.raises(ValueError):
        metrics.record_request("bfs-from-source", "bogus")


def test_server_snapshot_includes_cache_stats(graph):
    async def scenario(server):
        await server.submit("bfs-from-source", {"source": 1})
        await server.submit("bfs-from-source", {"source": 1})
        return server.metrics_snapshot()

    snap = serve(graph, scenario)
    assert snap["cache"]["results"]["hits"] == 1
    assert snap["requests"]["ok"] == 1 and snap["requests"]["cache_hit"] == 1


def test_serve_metrics_exported_through_tracer(graph, tmp_path):
    from repro.runtime.tracing import JsonlSink, Tracer, load_trace

    path = tmp_path / "serve.jsonl"
    tracer = Tracer(JsonlSink(str(path)))

    async def main():
        async with GraphServer(
            graph, engine_pool=1, num_workers=2, tracer=tracer
        ) as server:
            await server.submit("bfs-from-source", {"source": 1})
            await server.submit("bfs-from-source", {"source": 1})
    asyncio.run(main())
    tracer.close()
    names = {span.name for span in load_trace(str(path))}
    assert "serve.request" in names
    assert "serve.batch" in names
    assert "serve.metrics" in names
    assert "serve.cache_hit" in names


# ---------------------------------------------------------------------------
# Graceful degradation: engine failure mid-batch never reaches clients
# unhandled — the request is requeued once onto a replacement engine.
# ---------------------------------------------------------------------------
def test_engine_failure_requeues_without_client_errors(graph):
    async def scenario(server):
        server.inject_engine_failure(1)
        results = await asyncio.gather(*[
            server.submit("bfs-from-source", {"source": s}) for s in range(12)
        ])
        return results, server.metrics_snapshot()

    results, snap = serve(graph, scenario, engine_pool=2, caching=False)
    # Every client got its answer despite the mid-batch engine death...
    for source, result in zip(range(12), results):
        assert result.value[source] == 0
    assert snap["requests"]["error"] == 0
    assert snap["requests"]["ok"] == 12
    # ...because the doomed batch's requests were requeued onto the
    # replacement engine instead of erroring out.
    assert snap["requests"]["requeued"] >= 1
    assert snap["engines"]["failures"] == 1
    assert snap["engines"]["replaced"] == 1
    assert snap["engines"]["lost"] == 0
    assert snap["engines"]["pool_size"] == 2
    assert snap["engines"]["degraded"] is False
    assert "replaced" in snap["engines"]["health"].values()


def test_requeued_request_errors_on_second_engine_failure(graph):
    async def scenario(server):
        server.inject_engine_failure(2)
        with pytest.raises(EngineFailureError):
            await server.submit("bfs-from-source", {"source": 0})
        assert server.metrics.counts["requeued"] == 1
        assert server.metrics.counts["error"] == 1
        # Both broken engines were swapped out, so the server recovers.
        ok = await server.submit("bfs-from-source", {"source": 0})
        return ok, server.metrics_snapshot()

    result, snap = serve(graph, scenario, caching=False)
    assert result.value[0] == 0
    assert snap["engines"]["failures"] == 2
    assert snap["engines"]["replaced"] == 2


def test_engine_lost_degrades_but_keeps_serving(graph):
    async def scenario(server):
        def broken_build():
            raise RuntimeError("engine construction is down")

        server._build_engine = broken_build
        server.inject_engine_failure(1)
        results = await asyncio.gather(*[
            server.submit("bfs-from-source", {"source": s}) for s in range(6)
        ])
        return results, server.metrics_snapshot()

    results, snap = serve(graph, scenario, engine_pool=2, caching=False)
    for source, result in zip(range(6), results):
        assert result.value[source] == 0
    assert snap["requests"]["error"] == 0
    # One slot is permanently retired: degraded mode, reduced capacity,
    # zero client-visible failures.
    assert snap["engines"]["failures"] == 1
    assert snap["engines"]["replaced"] == 0
    assert snap["engines"]["lost"] == 1
    assert snap["engines"]["pool_size"] == 1
    assert snap["engines"]["degraded"] is True
    assert "failed" in snap["engines"]["health"].values()


def test_engine_failure_visible_in_metrics_and_trace(graph, tmp_path):
    from repro.runtime.tracing import JsonlSink, Tracer, load_trace

    path = tmp_path / "degraded.jsonl"
    tracer = Tracer(JsonlSink(str(path)))

    async def main():
        async with GraphServer(
            graph, engine_pool=1, num_workers=2, caching=False, tracer=tracer
        ) as server:
            server.inject_engine_failure(1)
            await server.submit("bfs-from-source", {"source": 3})
    asyncio.run(main())
    tracer.close()
    names = {span.name for span in load_trace(str(path))}
    assert "serve.requeue" in names
    assert "serve.engine_replaced" in names


# ---------------------------------------------------------------------------
# Engine context manager (PR-6 satellite)
# ---------------------------------------------------------------------------
def test_engine_context_manager_closes():
    graph = social_network(num_vertices=30, seed=0)
    with FlashEngine(graph, num_workers=2) as eng:
        assert not eng.closed
        result = A.bfs(eng, root=0)
        assert result.values[0] == 0
    assert eng.closed
    eng.close()  # idempotent
    assert eng.closed


def test_engine_close_idempotent_with_mp_executor():
    graph = social_network(num_vertices=30, seed=0)
    eng = FlashEngine(graph, num_workers=2)
    eng.close()
    eng.close()
    assert eng.closed


# ---------------------------------------------------------------------------
# Load generator + CLI
# ---------------------------------------------------------------------------
def test_run_load_report_shape(graph):
    report = run_load(
        graph,
        clients=3,
        requests_per_client=2,
        workload="bfs",
        engine_pool=1,
        num_workers=2,
        seed=1,
    )
    assert report["completed"] == 6
    assert report["throughput_rps"] > 0
    assert set(report["client_latency_ms"]) == {"p50", "p90", "p99", "max"}
    assert report["server"]["requests"]["error"] == 0
    assert sum(report["outcomes"].values()) == 6


def test_cli_serve_smoke(capsys):
    from repro.__main__ import main

    assert main([
        "serve", "OR", "--scale", "0.03", "--clients", "2", "--requests", "2",
        "--workload", "bfs", "--engine-pool", "1", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "served" in out and "throughput" in out and "result cache" in out


def test_cli_serve_json(capsys):
    import json

    from repro.__main__ import main

    assert main([
        "serve", "OR", "--scale", "0.03", "--clients", "2", "--requests", "1",
        "--workload", "sssp", "--engine-pool", "1", "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completed"] == 2
    assert "batches" in report["server"]


def test_registry_is_self_consistent():
    registry = build_registry()
    assert set(registry) == {
        "bfs-from-source", "sssp", "ppr-for-user", "pagerank-top-k",
        "cc-membership",
    }
    for algo in registry.values():
        if algo.batchable:
            assert algo.run_single is not None and algo.run_multi is not None
            assert algo.batch_key(algo.canonicalize({}, 10) if algo.name != "ppr-for-user"
                                  else algo.canonicalize({"seed": 1}, 10)) is not None
        else:
            assert algo.compute_artifact is not None and algo.extract is not None
            assert algo.batch_key(algo.canonicalize({}, 10)) is None
