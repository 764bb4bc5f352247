"""Interp vs vectorized backend: wall-clock speedup per application.

The vectorized executor replaces the per-vertex Python interpretation of
VERTEXMAP/EDGEMAP with columnar NumPy kernels over the shared CSR while
keeping every observable (results, supersteps, message accounting)
identical.  This benchmark measures the end-to-end wall-time ratio on a
seeded random graph and records it in ``BENCH_backend.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --n 4000 --edges 24000 --out BENCH_backend.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import random_graph
from repro.algorithms import bfs, cc_basic, kcore_basic, lpa, pagerank, sssp
from repro.core.config import use_config

APPS = {
    "cc": lambda g, w: cc_basic(g, num_workers=w),
    "bfs": lambda g, w: bfs(g, root=0, num_workers=w),
    "sssp": lambda g, w: sssp(g.with_random_weights(seed=7), root=0, num_workers=w),
    "pagerank": lambda g, w: pagerank(g, num_workers=w),
    "kc": lambda g, w: kcore_basic(g, num_workers=w),
    "lpa": lambda g, w: lpa(g, num_workers=w),
}


def _time(runner, graph, workers, backend, repeats):
    best = None
    result = None
    for _ in range(repeats):
        with use_config(backend=backend):
            start = time.perf_counter()
            result = runner(graph, workers)
            elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run(n, edges, seed, workers, repeats, apps):
    graph = random_graph(n, edges, seed=seed)
    rows = {}
    for app in apps:
        runner = APPS[app]
        t_interp, r_interp = _time(runner, graph, workers, "interp", repeats)
        t_vec, r_vec = _time(runner, graph, workers, "vectorized", repeats)
        if r_vec.values != r_interp.values:
            raise AssertionError(f"{app}: backend results diverge")
        if r_vec.engine.metrics.summary() != r_interp.engine.metrics.summary():
            raise AssertionError(f"{app}: backend accounting diverges")
        choices = r_vec.engine.metrics.backend_choices
        rows[app] = {
            "interp_s": round(t_interp, 4),
            "vectorized_s": round(t_vec, 4),
            "speedup": round(t_interp / t_vec, 2),
            "supersteps": r_vec.engine.metrics.num_supersteps,
            "vectorized_supersteps": choices.get("vectorized", 0),
            "interp_supersteps": choices.get("interp", 0),
        }
        print(f"{app:9s} interp {t_interp:8.3f}s  vectorized {t_vec:8.3f}s  "
              f"speedup {rows[app]['speedup']:6.2f}x")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4000, help="vertices")
    parser.add_argument("--edges", type=int, default=24000, help="edges")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--apps", nargs="*", default=list(APPS),
                        choices=list(APPS))
    parser.add_argument("--out", default="BENCH_backend.json")
    args = parser.parse_args(argv)

    rows = run(args.n, args.edges, args.seed, args.workers, args.repeats, args.apps)
    payload = {
        "graph": {"n": args.n, "edges": args.edges, "seed": args.seed},
        "workers": args.workers,
        "apps": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
