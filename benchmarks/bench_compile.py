"""Static kernel compiler: synthesized-spec coverage + planned sync traffic.

Two measurements per application:

* **coverage** — from the plan artifact (``repro plan``): how many
  kernels dispatch vectorized via a *synthesized* spec (no hand-written
  spec existed), how many via hand specs, how many stay interpreted, and
  the communication plan's predicted mirror-sync savings vs broadcast;
* **mp sync traffic** — the same app run twice on the multiprocess
  executor, ``--analysis static`` (no plan: every mirror holder gets
  every delta) vs ``--analysis compile`` (plan-scoped: deltas for
  neighbor-scoped properties are withheld from non-neighbor mirror
  holders).  Values must stay bit-identical; ``extra_entries`` must drop
  to the withheld count's complement.

``--smoke`` shrinks the graph and asserts the PR's acceptance floor:
at least 4 apps gain synthesized vectorized dispatch, and planned runs
ship strictly fewer non-neighbor sync entries than unplanned ones.

Run directly::

    PYTHONPATH=src python benchmarks/bench_compile.py \
        --n 2000 --edges 12000 --out BENCH_compile.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import random_graph
from repro.analysis.compile import build_plan
from repro.suite import prepare_graph, run_app

#: Apps whose kernels had no hand-written specs before the compiler —
#: synthesized specs are what moves them onto the vectorized backend.
NEWLY_COVERED = ["mis", "bc", "mm", "gc", "bcc"]

#: Apps measured on the multiprocess executor (small superstep counts,
#: neighbor-scoped frontier properties — the planner's target case).
MP_APPS = ["bfs", "cc", "mis"]


def coverage_rows(apps):
    rows = {}
    for app in apps:
        plan = build_plan(app)
        dispatch = [k["dispatch"] for k in plan.kernels]
        totals = plan.predicted_totals
        planned, broadcast = totals["planned_bytes"], totals["broadcast_bytes"]
        rows[app] = {
            "kernels": len(plan.kernels),
            "synthesized": sum(d == "vectorized(synthesized)" for d in dispatch),
            "hand": sum(d == "vectorized(hand)" for d in dispatch),
            "interp": sum(d == "interp" for d in dispatch),
            "plan_active": plan.plan_active,
            "scopes": plan.scopes,
            "predicted_planned_bytes": planned,
            "predicted_broadcast_bytes": broadcast,
            "predicted_savings_pct": round(
                100.0 * (1 - planned / broadcast), 1
            ) if broadcast else 0.0,
        }
        row = rows[app]
        print(f"{app:5s} kernels={row['kernels']:2d}  "
              f"synthesized={row['synthesized']:2d}  hand={row['hand']:2d}  "
              f"interp={row['interp']:2d}  "
              f"predicted sync -{row['predicted_savings_pct']}%")
    return rows


def _mp_run(app, graph, workers, analysis):
    start = time.perf_counter()
    result = run_app("flash", app, graph, num_workers=workers,
                     analysis=analysis, executor="mp")
    wall = time.perf_counter() - start
    dist = result.extra["distributed"]
    # Top-level ``bytes_sent`` is the whole session (open, bootstrap and
    # close included); the per-superstep rows sum to the superstep
    # traffic the plan acts on.
    step_bytes = sum(s["bytes_sent"] for s in dist["per_superstep"])
    return result, wall, dist, step_bytes


def mp_rows(apps, graph, workers):
    rows = {}
    for app in apps:
        prepared = prepare_graph(app, graph)
        base, base_wall, base_dist, base_bytes = _mp_run(
            app, prepared, workers, "static")
        plan, plan_wall, plan_dist, plan_bytes = _mp_run(
            app, prepared, workers, "compile")
        if list(base.values) != list(plan.values):
            raise AssertionError(f"{app}: planned mp run diverges from unplanned")
        rows[app] = {
            "workers": workers,
            "wall_s_static": round(base_wall, 4),
            "wall_s_compile": round(plan_wall, 4),
            "sync_entries": plan_dist["sync_entries"],
            "extra_entries_static": base_dist["extra_entries"],
            "extra_entries_compile": plan_dist["extra_entries"],
            "withheld_entries": plan_dist["withheld_entries"],
            "withheld_values": plan_dist["withheld_values"],
            "reshipped_columns": plan_dist.get("reshipped_columns", 0),
            "bytes_sent_static": base_bytes,
            "bytes_sent_compile": plan_bytes,
        }
        row = rows[app]
        print(f"{app:5s} mp x{workers}: extra entries "
              f"{row['extra_entries_static']} -> {row['extra_entries_compile']} "
              f"(withheld {row['withheld_entries']}), bytes "
              f"{row['bytes_sent_static']} -> {row['bytes_sent_compile']}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000, help="vertices")
    parser.add_argument("--edges", type=int, default=12000, help="edges")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--apps", nargs="*", default=NEWLY_COVERED,
                        help="apps for the coverage table")
    parser.add_argument("--mp-apps", nargs="*", default=MP_APPS,
                        help="apps for the mp traffic comparison")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graph + assert the acceptance floor")
    parser.add_argument("--out", default="BENCH_compile.json")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n, args.edges = 300, 1800

    graph = random_graph(args.n, args.edges, seed=args.seed)
    coverage = coverage_rows(args.apps)
    traffic = mp_rows(args.mp_apps, graph, args.workers)

    covered = [app for app, row in coverage.items() if row["synthesized"] > 0]
    total_withheld = sum(r["withheld_entries"] for r in traffic.values())
    total_extra_static = sum(r["extra_entries_static"] for r in traffic.values())
    total_extra_compile = sum(r["extra_entries_compile"] for r in traffic.values())

    payload = {
        "config": {
            "n": args.n,
            "edges": args.edges,
            "seed": args.seed,
            "workers": args.workers,
            "smoke": bool(args.smoke),
        },
        "cpu_count": os.cpu_count(),
        "coverage": coverage,
        "mp_traffic": traffic,
        "headline": {
            "apps_with_synthesized_dispatch": covered,
            "extra_entries_static": total_extra_static,
            "extra_entries_compile": total_extra_compile,
            "withheld_entries": total_withheld,
            "extra_entry_reduction_pct": round(
                100.0 * (1 - total_extra_compile / total_extra_static), 1
            ) if total_extra_static else 0.0,
        },
    }

    if args.smoke:
        assert len(covered) >= 4, (
            f"expected >=4 apps with synthesized vectorized dispatch, "
            f"got {covered}"
        )
        assert total_extra_compile < total_extra_static, (
            "planned runs must ship fewer non-neighbor sync entries "
            f"({total_extra_compile} vs {total_extra_static})"
        )
        assert total_withheld == total_extra_static - total_extra_compile, (
            "withheld accounting must explain the entry reduction"
        )
        for app, row in traffic.items():
            assert row["bytes_sent_compile"] <= row["bytes_sent_static"], app

    head = payload["headline"]
    print(f"headline: {len(covered)} apps synthesized "
          f"({', '.join(covered)}); mp extra entries "
          f"{head['extra_entries_static']} -> {head['extra_entries_compile']} "
          f"(-{head['extra_entry_reduction_pct']}%)")
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
