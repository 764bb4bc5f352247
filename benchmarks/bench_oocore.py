"""Out-of-core backend benchmark: parity on a resident graph, then a
graph-scale sweep where the graph is *never* resident — edges are
generated in chunks, external-sorted into block shards on disk
(``build_block_store_streamed``), and streamed through the oocore
kernels under a memory budget a fraction of the graph's size.

Phase A (parity) re-checks the tentpole invariant on a small resident
graph: ``backend="oocore"`` produces bit-identical values and charged
metrics to ``vectorized`` (the only difference being the I/O counters).

Phase B (scale) sweeps graph size at a fixed block-cache budget and
records, per cell: block-store bytes on disk, solve wall time, blocks
and bytes read, bytes read per superstep, and peak RSS sampled during
the solve (``_rss.RssSampler``).

The headline asserts the acceptance criteria on the largest cell:

* the block store on disk is >= 10x the configured memory budget, and
* peak RSS growth during the solve stays within 1.5x of the budget
  (the O(V) vertex state and partition metadata are resident by design
  — the semi-external-memory model — so growth is measured from the
  post-init baseline; what the budget bounds is the mapped blocks).

Run directly::

    PYTHONPATH=src python benchmarks/bench_oocore.py --out BENCH_oocore.json
    PYTHONPATH=src python benchmarks/bench_oocore.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from _rss import RssSampler, current_rss_bytes  # noqa: E402
from repro import random_graph  # noqa: E402
from repro.algorithms import bfs, cc_basic, pagerank  # noqa: E402
from repro.core.config import use_config  # noqa: E402
from repro.core.engine import FlashEngine  # noqa: E402
from repro.graph.blocks import BlockGraph, build_block_store_streamed  # noqa: E402
from repro.suite import run_app  # noqa: E402

MiB = 1024 * 1024


# ----------------------------------------------------------------------
# Phase A: parity on a resident graph
# ----------------------------------------------------------------------
def run_parity(workers: int) -> dict:
    graph = random_graph(200, 800, seed=3)
    cells = []
    for app in ("bfs", "cc"):
        vec = run_app("flash", app, graph, num_workers=workers,
                      backend="vectorized")
        with use_config(oocore_interval=64):
            ooc = run_app("flash", app, graph, num_workers=workers,
                          backend="oocore")
        vec_summary = vec.metrics.summary()
        ooc_summary = ooc.metrics.summary()
        io = {"blocks_read": ooc_summary.pop("blocks_read"),
              "bytes_read": ooc_summary.pop("bytes_read")}
        vec_summary.pop("blocks_read")
        vec_summary.pop("bytes_read")
        values_equal = ooc.values == vec.values
        summary_equal = ooc_summary == vec_summary
        assert values_equal and summary_equal, f"{app} parity broken"
        cells.append({"app": app, "values_equal": values_equal,
                      "summary_equal": summary_equal, **io})
    # Float sums fold per-target in in-CSR source order on both
    # backends, so PageRank must be equal to the last bit.
    with use_config(backend="vectorized"):
        a = pagerank(graph, num_workers=workers, max_iters=20)
    with use_config(backend="oocore", oocore_interval=64):
        b = pagerank(graph, num_workers=workers, max_iters=20)
    ranks_a = np.array([a.values[v] for v in range(graph.num_vertices)])
    ranks_b = np.array([b.values[v] for v in range(graph.num_vertices)])
    bit_identical = bool(np.array_equal(ranks_a, ranks_b))
    assert bit_identical, "pagerank not bit-identical across backends"
    cells.append({"app": "pagerank", "bit_identical": bit_identical})
    return {"graph": str(graph), "cells": cells}


# ----------------------------------------------------------------------
# Phase B: graph-scale sweep, graph never resident
# ----------------------------------------------------------------------
def edge_chunk_factory(num_vertices: int, num_edges: int, seed: int,
                       chunk: int = 100_000):
    """A generator *factory* over random edge chunks — the streamed
    builder consumes it twice (degree pass + bucket pass) without the
    edge list ever being materialized."""
    def chunks():
        rng = np.random.default_rng(seed)
        remaining = num_edges
        while remaining:
            k = min(chunk, remaining)
            yield (rng.integers(0, num_vertices, size=k, dtype=np.int64),
                   rng.integers(0, num_vertices, size=k, dtype=np.int64))
            remaining -= k
    return chunks


def run_scale_cell(num_vertices: int, num_edges: int, budget: int,
                   workers: int, app: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-oocore-") as tmp:
        t0 = time.perf_counter()
        store = build_block_store_streamed(
            tmp, num_vertices, edge_chunk_factory(num_vertices, num_edges, seed=9),
        )
        build_s = time.perf_counter() - t0
        store.budget = budget  # bound mapped blocks from the first access
        disk_bytes = sum(m.bytes for di in range(store.num_intervals)
                         for m in store.row_metas(di))
        try:
            graph = BlockGraph(store)
            t0 = time.perf_counter()
            engine = FlashEngine(graph, num_workers=workers, backend="oocore",
                                 oocore_budget=budget)
            init_s = time.perf_counter() - t0
            try:
                sampler = RssSampler()
                t0 = time.perf_counter()
                with sampler:
                    if app == "cc":
                        cc_basic(engine, num_workers=workers)
                    else:
                        bfs(engine, root=0, num_workers=workers)
                solve_s = time.perf_counter() - t0
                metrics = engine.metrics
                per_step_bytes = [rec.bytes_read for rec in metrics.records]
                assert store.mapped_bytes <= budget, \
                    f"mapped {store.mapped_bytes}B exceeds budget {budget}B"
                return {
                    "num_vertices": num_vertices,
                    "num_edges": num_edges,
                    "num_arcs": store.num_arcs,
                    "disk_bytes": disk_bytes,
                    "budget_bytes": budget,
                    "graph_to_budget_ratio": round(disk_bytes / budget, 2),
                    "app": app,
                    "build_s": round(build_s, 3),
                    "engine_init_s": round(init_s, 3),
                    "solve_s": round(solve_s, 3),
                    "supersteps": metrics.num_supersteps,
                    "backend_choices": dict(metrics.backend_choices),
                    "blocks_read": metrics.total_blocks_read,
                    "bytes_read": metrics.total_bytes_read,
                    "bytes_read_per_superstep": per_step_bytes,
                    "blocks_evicted": store.blocks_evicted,
                    "rss_baseline_bytes": sampler.baseline_bytes,
                    "rss_peak_bytes": sampler.peak_bytes,
                    "rss_delta_bytes": sampler.delta_bytes,
                    "rss_delta_to_budget_ratio": round(
                        sampler.delta_bytes / budget, 2),
                }
            finally:
                engine.close()
        finally:
            store.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-mb", type=float, default=4.0,
                        help="block-cache memory budget for the scale sweep")
    parser.add_argument("--vertices", type=int, default=20_000)
    parser.add_argument("--edges", type=int, nargs="+",
                        default=[300_000, 600_000, 1_200_000],
                        help="edge-count sweep points (graph-scale axis)")
    parser.add_argument("--app", default="bfs", choices=["bfs", "cc"])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default="BENCH_oocore.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep for CI (still writes --out and "
                             "asserts the headline)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.budget_mb = 2.0
        args.vertices = 8_000
        args.edges = [150_000, 500_000]

    budget = int(args.budget_mb * MiB)

    print("phase A: vectorized vs oocore parity on a resident graph")
    parity = run_parity(args.workers)
    for cell in parity["cells"]:
        print(f"  {cell['app']:9s} " + ", ".join(
            f"{k}={v}" for k, v in cell.items() if k != "app"))

    print(f"phase B: scale sweep, budget={args.budget_mb} MiB, "
          f"|V|={args.vertices}, app={args.app}")
    sweep = []
    for num_edges in args.edges:
        cell = run_scale_cell(args.vertices, num_edges, budget,
                              args.workers, args.app)
        sweep.append(cell)
        print(f"  |E|={num_edges:9,d}  disk={cell['disk_bytes'] / MiB:6.1f} MiB "
              f"({cell['graph_to_budget_ratio']:5.1f}x budget)  "
              f"solve={cell['solve_s']:6.3f}s  "
              f"read={cell['bytes_read'] / MiB:7.1f} MiB  "
              f"rss_delta={cell['rss_delta_bytes'] / MiB:5.1f} MiB "
              f"({cell['rss_delta_to_budget_ratio']:4.2f}x budget)")

    # Headline: the largest graph in the sweep satisfies the acceptance
    # criteria — >= 10x bigger than the budget on disk, completed with
    # peak RSS growth within 1.5x of the budget.
    largest = max(sweep, key=lambda c: c["disk_bytes"])
    headline = {
        "budget_bytes": budget,
        "disk_bytes": largest["disk_bytes"],
        "graph_to_budget_ratio": largest["graph_to_budget_ratio"],
        "rss_delta_bytes": largest["rss_delta_bytes"],
        "rss_delta_to_budget_ratio": largest["rss_delta_to_budget_ratio"],
        "solve_s": largest["solve_s"],
        "bytes_read": largest["bytes_read"],
    }
    assert headline["graph_to_budget_ratio"] >= 10.0, (
        f"largest graph is only {headline['graph_to_budget_ratio']}x the "
        f"budget; the out-of-core claim needs >= 10x")
    assert headline["rss_delta_to_budget_ratio"] <= 1.5, (
        f"peak RSS grew {headline['rss_delta_to_budget_ratio']}x the budget "
        f"during the solve; the block cache is not honoring its bound")
    print(f"headline: {headline['graph_to_budget_ratio']}x-of-budget graph "
          f"solved in {headline['solve_s']}s with peak RSS growth "
          f"{headline['rss_delta_to_budget_ratio']}x budget (<= 1.5x)")

    report = {
        "config": {
            "budget_mb": args.budget_mb,
            "vertices": args.vertices,
            "edges": args.edges,
            "app": args.app,
            "workers": args.workers,
            "smoke": args.smoke,
        },
        "parity": parity,
        "sweep": sweep,
        "headline": headline,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
