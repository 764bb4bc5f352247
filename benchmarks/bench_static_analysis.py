"""Static vs trace critical-property analysis across the 14-app suite.

Two quantities per app, recorded in ``BENCH_static.json``:

* **sync messages** — the ahead-of-time pass must never sync *more*
  than the runtime sample tracer (Table II applied to all branches is
  an upper bound the engine filters to declared properties; the trace
  baseline additionally relies on the runtime ``engine.get`` promotion
  net).  The acceptance bar is ``static <= trace`` for every app —
  equality on apps whose kernels are branch-free on the sampled path,
  a reduction wherever the old sampling strategy over-promoted.
* **analysis wall time** — the static pass analyzes each kernel once
  (memoized on the user functions' code objects), where tracing
  re-runs the user functions against recording views before *every*
  superstep.  The benchmark times full runs under both modes.

Final vertex values are asserted identical between the modes inline —
analysis strategy must never change results.

Run directly::

    PYTHONPATH=src python benchmarks/bench_static_analysis.py \
        --n 2000 --edges 12000 --out BENCH_static.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import random_graph
from repro.core.config import use_config
from repro.graph.graph import Graph
from repro.suite import APPS, DIRECTED_APPS, prepare_graph, run_app


def _time_run(app, graph, workers, backend, mode, repeats):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        with use_config(analysis=mode):
            result = run_app("flash", app, graph, num_workers=workers,
                             backend=backend)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run(n, edges, seed, workers, backend, repeats, apps):
    base = random_graph(n, edges, seed=seed)
    directed = Graph.from_edges(base.edges(), directed=True,
                                num_vertices=base.num_vertices)
    rows = {}
    regressions = []
    for app in apps:
        graph = prepare_graph(app, directed if app in DIRECTED_APPS else base)
        t_trace, r_trace = _time_run(app, graph, workers, backend, "trace", repeats)
        t_static, r_static = _time_run(app, graph, workers, backend, "static", repeats)
        if r_static.values != r_trace.values:
            raise AssertionError(f"{app}: analysis mode changed the results")
        sync_trace = r_trace.metrics.summary()["sync_messages"]
        sync_static = r_static.metrics.summary()["sync_messages"]
        if sync_static > sync_trace:
            regressions.append(app)
        rows[app] = {
            "trace_s": t_trace,
            "static_s": t_static,
            "speedup": t_trace / t_static if t_static else 1.0,
            "sync_messages_trace": sync_trace,
            "sync_messages_static": sync_static,
            "sync_reduction": (
                1.0 - sync_static / sync_trace if sync_trace else 0.0
            ),
        }
        print(f"{app:4s}  trace {t_trace * 1e3:8.2f} ms / {sync_trace:8d} sync   "
              f"static {t_static * 1e3:8.2f} ms / {sync_static:8d} sync   "
              f"({rows[app]['sync_reduction']:+6.2%} sync, "
              f"x{rows[app]['speedup']:.2f} wall)")
    total_trace = sum(r["sync_messages_trace"] for r in rows.values())
    total_static = sum(r["sync_messages_static"] for r in rows.values())
    reduction = 1.0 - total_static / total_trace if total_trace else 0.0
    wall_trace = sum(r["trace_s"] for r in rows.values())
    wall_static = sum(r["static_s"] for r in rows.values())
    print(f"\naggregate sync messages: trace {total_trace}, static "
          f"{total_static} ({reduction:+.2%}); wall {wall_trace * 1e3:.1f} ms "
          f"-> {wall_static * 1e3:.1f} ms")
    return {
        "config": {
            "n": n, "edges": edges, "seed": seed, "workers": workers,
            "backend": backend, "repeats": repeats, "apps": list(apps),
        },
        "apps": rows,
        "sync_messages_trace": total_trace,
        "sync_messages_static": total_static,
        "aggregate_sync_reduction": reduction,
        "total_trace_s": wall_trace,
        "total_static_s": wall_static,
        "regressions": regressions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--edges", type=int, default=12000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backend", default="interp")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--apps", nargs="*", default=list(APPS))
    parser.add_argument("--out", default="BENCH_static.json")
    args = parser.parse_args(argv)

    report = run(args.n, args.edges, args.seed, args.workers, args.backend,
                 args.repeats, args.apps)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if report["regressions"]:
        print(f"FAIL: static analysis synced more than the trace baseline "
              f"for {report['regressions']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
