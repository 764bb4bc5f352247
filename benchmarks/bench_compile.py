"""Static kernel compiler: synthesized-spec coverage + planned sync traffic.

Two measurements per application:

* **coverage** — from the plan artifact (``repro plan``): how many
  kernels dispatch vectorized via a *synthesized* spec (no hand-written
  spec existed), how many via hand specs, how many stay interpreted, and
  the communication plan's predicted mirror-sync savings vs broadcast;
* **mp sync traffic** — one run of the app on the multiprocess
  executor, whose communication plan withholds the deltas of
  neighbor-scoped properties from non-neighbor mirror holders.  Its
  values must equal an inline interpreted run's; ``withheld_entries``
  counts the deltas the plan kept off the wire and ``extra_entries``
  (deltas shipped to non-neighbor mirrors) must be zero.

``--smoke`` shrinks the graph and asserts the acceptance floor: at
least 4 apps gain synthesized vectorized dispatch, and the planned mp
runs withhold deltas and ship no extra entries.

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


def mp_rows(apps, graph, workers):
    rows = {}
    for app in apps:
        prepared = prepare_graph(app, graph)
        inline = run_app("flash", app, prepared, num_workers=workers)
        start = time.perf_counter()
        planned = run_app("flash", app, prepared, num_workers=workers, executor="mp")
        wall = time.perf_counter() - start
        if list(planned.values) != list(inline.values):
            raise AssertionError(f"{app}: planned mp run diverges from the inline run")
        dist = planned.extra["distributed"]
        rows[app] = {
            "workers": workers,
            "wall_s": round(wall, 4),
            "sync_entries": dist["sync_entries"],
            "extra_entries": dist["extra_entries"],
            "withheld_entries": dist["withheld_entries"],
            "withheld_values": dist["withheld_values"],
            "reshipped_columns": dist.get("reshipped_columns", 0),
            # Top-level ``bytes_sent`` is the whole session (open,
            # bootstrap and close included); the per-superstep rows sum
            # to the superstep traffic the plan acts on.
            "bytes_sent": sum(s["bytes_sent"] for s in dist["per_superstep"]),
        }
        row = rows[app]
        print(f"{app:5s} mp x{workers}: {row['sync_entries']} sync entries, "
              f"{row['withheld_entries']} withheld, {row['extra_entries']} extra, "
              f"{row['bytes_sent']} bytes")
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
    total_extra = sum(r["extra_entries"] for r in traffic.values())

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
            "extra_entries": total_extra,
            "withheld_entries": total_withheld,
        },
    }

    if args.smoke:
        assert len(covered) >= 4, (
            f"expected >=4 apps with synthesized vectorized dispatch, "
            f"got {covered}"
        )
        assert total_withheld > 0, "the planned mp runs must withhold deltas"
        assert total_extra == 0, (
            f"planned mp runs must ship no non-neighbor entries ({total_extra})"
        )

    head = payload["headline"]
    print(f"headline: {len(covered)} apps synthesized "
          f"({', '.join(covered)}); mp: {head['withheld_entries']} entries "
          f"withheld, {head['extra_entries']} extra")
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
