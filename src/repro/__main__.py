"""Command-line entry point: quick demos and experiment regeneration.

Usage::

    python -m repro list                       # list datasets and apps
    python -m repro run bfs OR                 # run one app on one dataset
    python -m repro run bfs OR --trace out.jsonl   # ... with structured tracing
    python -m repro trace summarize out.jsonl  # per-primitive cost table
    python -m repro compare mis OR             # all 5 frameworks, one app
    python -m repro run cc OR --executor mp    # real multiprocess workers
    python -m repro partition-stats OR         # hash vs range vs degree cuts
    python -m repro lloc                       # Table I (measured vs paper)
    python -m repro lint --all                 # flashlint over every app
    python -m repro lint bfs cc --json         # ... selected apps, JSON out
    python -m repro plan bfs                   # compiled kernel plan
    python -m repro serve OR --clients 16      # graph-as-a-service load run

The paper's tables and figures are regenerated and checked against their
golden file by ``benchmarks/paper.py --check``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import load_dataset
from repro.analysis import paper
from repro.core.config import EXECUTORS, current_config, use_config
from repro.analysis.lloc import TABLE1_ALGORITHMS, TABLE1_FRAMEWORKS, table1_rows
from repro.analysis.tables import format_table
from repro.graph.generators import DATASETS
from repro.runtime.cluster import ClusterSpec
from repro.runtime.costmodel import CostModel
from repro.runtime.faults import FaultPlan
from repro.runtime.recovery import make_policy
from repro.runtime.tracing import (
    ChromeTraceSink,
    JsonlSink,
    Tracer,
    format_trace_summary,
    load_trace,
)
from repro.runtime.vectorized.dispatch import BACKENDS
from repro.serving.loadgen import WORKLOADS
from repro.suite import APPS, FRAMEWORKS, prepare_graph, run_app


#: Every engine setting the command line takes, declared once.
ENGINE_FLAGS = {
    "--workers": dict(type=int, help="number of FLASH workers (default 4)"),
    "--backend": dict(choices=list(BACKENDS),
                      help="FLASH execution backend (vectorized = NumPy "
                           "columnar kernels, oocore = streamed edge "
                           "blocks; default interp)"),
    "--executor": dict(choices=list(EXECUTORS),
                       help="FLASH execution substrate: inline (single-process "
                            "simulation, the default) or mp (one real worker "
                            "process per worker, with actual mirror-"
                            "synchronization traffic)"),
    "--oocore-budget-mb": dict(type=float, metavar="MB",
                               help="memory budget for mapped edge blocks under "
                                    "--backend oocore (default 64 MiB)"),
}


def _engine_flags(parser, *flags: str) -> None:
    """Add the engine settings a subcommand applies (all of them by
    default).  A flag left out keeps the caller's ambient value
    (:func:`use_config`)."""
    group = parser.add_argument_group("engine settings")
    for flag in flags or ENGINE_FLAGS:
        group.add_argument(flag, default=None, **ENGINE_FLAGS[flag])


def _engine_config(args):
    """The caller's ambient engine record with the flags given laid over it."""
    budget_mb = getattr(args, "oocore_budget_mb", None)
    return current_config().override(
        num_workers=args.workers, backend=getattr(args, "backend", None),
        executor=getattr(args, "executor", None),
        oocore_budget=None if budget_mb is None else int(budget_mb * 1024 * 1024),
    )


def cmd_list(_args) -> int:
    print("datasets (Table III analogues):")
    for name, spec in DATASETS.items():
        print(f"  {name:3s} ~ {spec.paper_name:12s} [{spec.domain}] {spec.description}")
    print(f"\napplications (Table IV): {', '.join(APPS)}")
    print(f"frameworks: {', '.join(FRAMEWORKS)}")
    return 0


def _load(app: str, dataset: str, scale: float):
    graph = load_dataset(dataset, scale=scale, directed=(app == "scc"))
    return prepare_graph(app, graph)


def _fault_kwargs(args) -> dict:
    """Translate the --faults/--checkpoint* flags into run_app kwargs."""
    kwargs = {}
    if getattr(args, "faults", None):
        kwargs["faults"] = FaultPlan.parse(args.faults)
    if getattr(args, "faults", None) or getattr(args, "checkpoint_every", None) \
            or getattr(args, "checkpoint", None):
        policy, every = getattr(args, "checkpoint", None), getattr(args, "checkpoint_every", None)
        kwargs["checkpoint_policy"] = lambda: make_policy(policy, every)
    return kwargs


def _print_recovery(extra: dict, cost) -> None:
    stats = extra.get("recovery")
    if not stats:
        return
    overhead = cost.checkpoint + cost.recovery
    share = overhead / cost.total if cost.total else 0.0
    print(f"  recovery: {stats['failures']} failure(s), "
          f"{stats['checkpoints_written']} checkpoint(s) written "
          f"({stats['checkpoint_values']} values), "
          f"{stats['replayed_supersteps']} superstep(s) replayed, "
          f"{stats['restore_values']} values restored")
    print(f"  recovery share of simulated cost: {share:.1%} "
          f"(checkpoint {cost.checkpoint * 1e3:.3f} ms + "
          f"recovery {cost.recovery * 1e3:.3f} ms)")
    for line in stats["failure_log"]:
        print(f"    - {line}")


def _make_tracer(args) -> Tracer:
    """Build the tracer behind ``--trace PATH --trace-format FORMAT``."""
    if args.trace_format == "chrome":
        return Tracer(ChromeTraceSink(args.trace))
    return Tracer(JsonlSink(args.trace))


def _print_distributed(extra: dict) -> None:
    dist = extra.get("distributed")
    if not dist:
        return
    print(f"  distributed: {dist['workers']} worker process(es), "
          f"{dist['sync_entries']} real sync + {dist['extra_entries']} extra "
          f"+ {dist['commit_entries']} commit entries, "
          f"{dist['reduce_entries']} reduce entries, "
          f"{dist['bytes_sent']}B sent / {dist['bytes_recv']}B recv")


def cmd_run(args) -> int:
    cfg = _engine_config(args)
    graph = _load(args.app, args.dataset, args.scale)
    tracer = _make_tracer(args) if args.trace else None
    try:
        with use_config(cfg):
            run = run_app("flash", args.app, graph, num_workers=cfg.num_workers,
                          tracer=tracer, **_fault_kwargs(args))
    finally:
        if tracer is not None:
            tracer.close()
    cluster = ClusterSpec(nodes=cfg.num_workers, cores_per_node=32)
    cost = run.cost(cluster, CostModel())
    print(f"{args.app} on {args.dataset} ({graph})")
    print(f"  metrics: {run.metrics.summary()}")
    print(f"  backend: {cfg.backend} (supersteps by executor: "
          f"{run.metrics.backend_choices or {'interp': run.metrics.num_supersteps}})")
    print(f"  EDGEMAP mode choices: {run.metrics.mode_choices}")
    print(f"  simulated time on {cfg.num_workers}x32 cores: {cost.total * 1e3:.3f} ms")
    _print_distributed(run.extra)
    _print_recovery(run.extra, cost)
    if run.extra:
        preview = {k: v for k, v in run.extra.items() if not isinstance(v, (dict, list))}
        if preview:
            print(f"  extra: {preview}")
    if tracer is not None:
        print(f"  trace: {tracer.spans_emitted} span(s) -> {args.trace} "
              f"[{args.trace_format}]")
        if args.trace_format == "chrome":
            print("  open in chrome://tracing or https://ui.perfetto.dev")
        else:
            print(f"  summarize with: python -m repro trace summarize {args.trace}")
    return 0


def cmd_trace(args) -> int:
    spans = load_trace(args.file)
    if not spans:
        print(f"no spans found in {args.file}")
        return 1
    print(format_trace_summary(spans, top=args.top))
    return 0


def cmd_compare(args) -> int:
    graph = _load(args.app, args.dataset, args.scale)
    model = CostModel()
    rows = []
    flash_modes = None
    flash_recovery = None
    flash_io = None
    cfg = _engine_config(args)
    fault_kwargs = _fault_kwargs(args)
    for framework in FRAMEWORKS:
        workers = 1 if framework == "ligra" else cfg.num_workers
        if framework == "flash":
            with use_config(cfg):
                run = run_app(framework, args.app, graph, num_workers=workers,
                              **fault_kwargs)
        else:
            # The engine flags and faults are FLASH's: the baselines run
            # fault-free under the caller's record, for reference.
            run = run_app(framework, args.app, graph, num_workers=workers)
        if run is None:
            rows.append([framework, "-", "-", "inexpressible"])
            continue
        cluster = ClusterSpec(nodes=workers, cores_per_node=32)
        name = f"flash[{cfg.backend}]" if framework == "flash" else framework
        if framework == "flash" and cfg.executor != "inline":
            name = f"flash[{cfg.executor}]"
        cost = run.cost(cluster, model)
        if framework == "flash":
            flash_modes = run.metrics.mode_choices
            if run.extra.get("recovery"):
                flash_recovery = (run.extra, cost)
            if run.metrics.total_blocks_read:
                flash_io = (run.metrics.total_blocks_read,
                            run.metrics.total_bytes_read, cost.io)
        rows.append(
            [
                name,
                run.metrics.num_supersteps,
                run.metrics.total_messages,
                f"{cost.total * 1e3:.3f}ms",
            ]
        )
    print(format_table(["framework", "supersteps", "messages", "sim. time"], rows,
                       title=f"{args.app} on {args.dataset} ({graph})"))
    if flash_modes is not None:
        print(f"flash EDGEMAP mode choices: {flash_modes}")
    if flash_io is not None:
        blocks, nbytes, io_cost = flash_io
        print(f"flash out-of-core I/O: {blocks} block read(s), {nbytes}B "
              f"({io_cost * 1e3:.3f}ms simulated)")
    if flash_recovery is not None:
        extra, cost = flash_recovery
        print("flash fault tolerance:")
        _print_recovery(extra, cost)
    return 0


def cmd_partition_stats(args) -> int:
    from repro.graph.partition import PARTITION_STRATEGIES, compare_partitioners

    graph = load_dataset(args.dataset, scale=args.scale)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in PARTITION_STRATEGIES and s != "range":
            print(f"partition-stats: unknown strategy {s!r}; expected any of: "
                  f"{', '.join(PARTITION_STRATEGIES)} (or alias 'range')",
                  file=sys.stderr)
            return 2
    workers = _engine_config(args).num_workers
    qualities = compare_partitioners(graph, workers, strategies)
    if args.json:
        print(json.dumps([q.as_dict() for q in qualities], indent=2, sort_keys=True))
        return 0
    rows = [
        [
            q.strategy,
            q.cut_arcs,
            f"{q.cut_ratio:.1%}",
            f"{q.replication_factor:.2f}",
            q.mirror_count,
            f"{q.vertex_balance:.2f}",
            f"{q.edge_balance:.2f}",
        ]
        for q in qualities
    ]
    print(format_table(
        ["strategy", "cut arcs", "cut ratio", "repl. factor",
         "mirrors", "vtx balance", "edge balance"],
        rows,
        title=f"partition quality on {args.dataset} ({graph}) over "
              f"{workers} workers",
    ))
    best = min(qualities, key=lambda q: q.cut_arcs)
    print(f"fewest cut arcs: {best.strategy} "
          f"({best.cut_arcs} cut, replication factor {best.replication_factor:.2f})")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.staticpass import RULES, lint_apps, summarize

    if args.rules:
        print("flashlint rule catalog:")
        for rule, (severity, description) in RULES.items():
            print(f"  {rule:24s} [{severity:7s}] {description}")
        return 0
    if not args.all and not args.app:
        print("lint: name at least one app, or pass --all", file=sys.stderr)
        return 2
    unknown = [app for app in args.app if app not in APPS]
    if unknown:
        print(f"lint: unknown app(s) {', '.join(unknown)}; "
              f"expected any of: {', '.join(APPS)}", file=sys.stderr)
        return 2
    findings_by_app = lint_apps(None if args.all else args.app)
    payload = summarize(findings_by_app)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for app in payload["apps"]:
            for finding in findings_by_app[app]:
                print(finding.render())
        print(
            f"linted {len(payload['apps'])} app(s): "
            f"{payload['errors']} error(s), {payload['warnings']} warning(s)"
        )
    return 1 if payload["errors"] else 0


def cmd_plan(args) -> int:
    from repro.analysis.compile import build_plan, render_plan

    plan = build_plan(args.app, num_workers=_engine_config(args).num_workers)
    if args.json:
        print(json.dumps(plan.describe(), indent=2, sort_keys=True))
    else:
        print(render_plan(plan))
    return 0


def cmd_serve(args) -> int:
    from repro.serving import run_load

    graph = load_dataset(args.dataset, scale=args.scale)
    tracer = _make_tracer(args) if args.trace else None
    try:
        with use_config(_engine_config(args)):
            report = run_load(
                graph,
                clients=args.clients,
                requests_per_client=args.requests,
                workload=args.workload,
                batching=not args.no_batching,
                caching=not args.no_caching,
                batch_window=args.batch_window,
                max_batch=args.max_batch,
                queue_depth=args.queue_depth,
                engine_pool=args.engine_pool,
                deadline=args.deadline,
                seed=args.seed,
                tracer=tracer,
            )
    finally:
        if tracer is not None:
            tracer.close()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    server = report["server"]
    print(f"served {args.workload!r} workload on {args.dataset} ({graph})")
    print(f"  clients: {args.clients} x {args.requests} requests "
          f"(closed loop), batching={not args.no_batching}, "
          f"caching={not args.no_caching}")
    print(f"  wall: {report['wall_s'] * 1e3:.1f} ms, completed: "
          f"{report['completed']}, throughput: {report['throughput_rps']} req/s")
    lat = report["client_latency_ms"]
    print(f"  client latency: p50 {lat['p50']} ms, p90 {lat['p90']} ms, "
          f"p99 {lat['p99']} ms, max {lat['max']} ms")
    batches = server["batches"]
    print(f"  batches: {batches['executed']} executed, {batches['merged']} "
          f"merged, mean occupancy {batches['occupancy_mean']}, "
          f"max {batches['occupancy_max']}")
    cache = server["cache"]["results"]
    print(f"  result cache: {cache['hits']} hit(s) / "
          f"{cache['hits'] + cache['misses']} lookup(s) "
          f"(hit rate {cache['hit_rate']:.1%}), size {cache['size']}")
    rejected = (server["requests"]["rejected_queue_full"]
                + server["requests"]["rejected_deadline"])
    if rejected:
        print(f"  rejected: {server['requests']['rejected_queue_full']} "
              f"queue-full, {server['requests']['rejected_deadline']} "
              f"deadline-expired")
    print(f"  engine supersteps spent: {server['engine_supersteps']}")
    if tracer is not None:
        print(f"  trace: {args.trace} [{args.trace_format}]")
    return 0


def cmd_lloc(_args) -> int:
    measured = dict(table1_rows())
    rows = []
    for algo in TABLE1_ALGORITHMS:
        row = [algo]
        for fw in TABLE1_FRAMEWORKS:
            mine = measured[algo][fw]
            published = paper.TABLE1[algo][fw]
            row.append(
                f"{'-' if mine is None else mine}"
                f"({'-' if published is None else published})"
            )
        rows.append(row)
    print(format_table(["algo"] + TABLE1_FRAMEWORKS, rows,
                       title="Table I LLoCs: measured(paper)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list datasets, applications and frameworks")

    cmd_parsers = {}
    for name, help_text in (("run", "run one app on FLASH"),
                            ("compare", "compare all frameworks on one app")):
        p = sub.add_parser(name, help=help_text)
        cmd_parsers[name] = p
        p.add_argument("app", choices=APPS)
        p.add_argument("dataset", choices=list(DATASETS))
        p.add_argument("--scale", type=float, default=0.15)
        _engine_flags(p)
        p.add_argument(
            "--faults",
            default=None,
            metavar="PLAN",
            help="inject worker failures and recover automatically; e.g. "
                 "'4' (kill a worker at superstep 4), '4:1' (kill worker 1), "
                 "'hazard=0.05,seed=7,max=2' (seeded hazard rate). "
                 "Process-level chaos modes (require --executor mp): "
                 "'kill@3:w1' (SIGKILL worker 1's OS process at superstep "
                 "3), 'hang@2:w0' (worker stops replying), 'slow@1:w2' "
                 "(worker delays every reply)",
        )
        p.add_argument(
            "--checkpoint-every",
            type=int,
            default=None,
            metavar="K",
            help="periodic checkpoint interval in supersteps (default 4 "
                 "when fault tolerance is on)",
        )
        p.add_argument(
            "--checkpoint",
            choices=["periodic", "adaptive", "none"],
            default=None,
            help="checkpoint policy (adaptive amortizes snapshot cost "
                 "against superstep cost via the cost model)",
        )

    cmd_parsers["run"].add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured trace of the run (superstep/barrier/"
             "recovery spans with ops, messages, mode and backend "
             "attribution); inspect with 'repro trace summarize PATH'",
    )
    cmd_parsers["run"].add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format: jsonl (one span per line, the "
             "summarize input) or chrome (chrome://tracing / Perfetto "
             "trace_event JSON)",
    )

    p = sub.add_parser(
        "partition-stats",
        help="compare partitioning strategies (cut arcs, replication, balance)",
    )
    p.add_argument("dataset", choices=list(DATASETS))
    p.add_argument("--scale", type=float, default=0.15)
    _engine_flags(p, "--workers")
    p.add_argument(
        "--strategies",
        default="hash,range,degree",
        help="comma-separated strategies to compare (hash, range/chunk, degree)",
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (one record per strategy)")

    sub.add_parser("lloc", help="Table I LLoC matrix")

    p = sub.add_parser(
        "lint",
        help="flashlint: static-analysis misuse checks over FLASH apps",
    )
    p.add_argument("app", nargs="*", metavar="app",
                   help=f"apps to lint, from: {', '.join(APPS)}")
    p.add_argument("--all", action="store_true",
                   help="lint the whole application suite")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (findings + rule catalog)")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalog and exit")

    p = sub.add_parser(
        "plan",
        help="static kernel compiler plan: per-kernel classification, "
             "spec-synthesis dispatch decision and predicted sync traffic",
    )
    p.add_argument("app", choices=APPS)
    _engine_flags(p, "--workers")
    p.add_argument("--json", action="store_true",
                   help="machine-readable plan artifact")

    p = sub.add_parser(
        "serve",
        help="graph-as-a-service: drive closed-loop clients against the "
             "async query server (batching + versioned result cache)",
    )
    p.add_argument("dataset", choices=list(DATASETS))
    p.add_argument("--scale", type=float, default=0.15)
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent closed-loop clients")
    p.add_argument("--requests", type=int, default=8,
                   help="requests issued per client")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="mixed",
                   help="request mix (batchable = single-source only)")
    p.add_argument("--no-batching", action="store_true",
                   help="disable multi-source request merging")
    p.add_argument("--no-caching", action="store_true",
                   help="disable the versioned result cache")
    p.add_argument("--batch-window", type=float, default=0.002, metavar="S",
                   help="batching window in seconds")
    p.add_argument("--max-batch", type=int, default=16,
                   help="max requests merged into one run")
    p.add_argument("--queue-depth", type=int, default=None,
                   help="admission queue depth (default 2x clients)")
    p.add_argument("--engine-pool", type=int, default=2,
                   help="resident worker engines")
    _engine_flags(p, "--workers", "--backend", "--oocore-budget-mb")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-request deadline in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write serve.request/serve.batch spans and the final "
                        "serve.metrics snapshot (inspect with 'repro trace "
                        "summarize PATH')")
    p.add_argument("--trace-format", choices=["jsonl", "chrome"],
                   default="jsonl")
    p.add_argument("--json", action="store_true",
                   help="print the full machine-readable report")

    p = sub.add_parser("trace", help="inspect a trace file written by run --trace")
    p.add_argument("action", choices=["summarize"],
                   help="summarize: per-primitive cost table + top-k supersteps")
    p.add_argument("file", help="trace file (jsonl or chrome format)")
    p.add_argument("--top", type=int, default=10,
                   help="number of most-expensive supersteps to show")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"list": cmd_list, "run": cmd_run, "compare": cmd_compare,
               "lloc": cmd_lloc, "trace": cmd_trace, "lint": cmd_lint,
               "serve": cmd_serve, "plan": cmd_plan,
               "partition-stats": cmd_partition_stats}[args.command]
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
