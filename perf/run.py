"""The performance ledger's one command.

Driver form (one workload, one run; last stdout line is the result)::

    python3 perf/run.py --workload vec-dense --seed 1 --seconds 10 --trace 0

Suite forms (each workload in its own fresh interpreter, one after
another)::

    python3 perf/run.py --seed 1              # untraced suite -> perf/baseline.json
    python3 perf/run.py --seed 1 --traced     # plus the per-layer pass
    python3 perf/run.py --seed 1 --aa         # the suite twice; gaps vs bounds
    python3 perf/run.py --smoke               # toy sizes, < 60 s, bounds not enforced
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
DETAIL_PREFIX = "#detail "

# Run as a script, sys.path[0] is perf/ itself; the package is one up.
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf.stats import iqr, median  # noqa: E402


def _require_program() -> None:
    """The benchmark measures the program in ``src/``; without it there
    is nothing to run (the driver checks this in a bare directory)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perf: no program under {ROOT / 'src'}; nothing to measure\n")
        raise SystemExit(2)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# One workload, one run
# ---------------------------------------------------------------------------
def _import_program() -> float:
    """Seconds a fresh interpreter spends importing the program before
    it can build anything (part of ``setup_s``: every ``repro run`` and
    ``repro serve`` pays it)."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.algorithms  # noqa: F401
    import repro.graph.blocks  # noqa: F401
    import repro.runtime.distributed  # noqa: F401
    import repro.serving.server  # noqa: F401

    return time.perf_counter() - t0


def _on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)  # unwind through run_one's finally


def run_one(args: argparse.Namespace) -> int:
    _require_program()
    from perf import proc

    signal.signal(signal.SIGTERM, _on_sigterm)
    work_root = PERF / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    # Anything the program puts in a temporary directory stays in the checkout.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)  # ... also in the mp workers
    try:
        import_s = _import_program()
        from perf import harness
        from perf.workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"perf: unknown workload {args.workload!r}; "
                             f"expected one of {list(WORKLOADS)}")
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        quick = args.size == "smoke"
        if args.trace:
            final, detail = harness.run_traced(wl, args.seconds, quick, ROOT, args.spans_out)
        else:
            final, detail = harness.run_untraced(wl, args.seconds, quick, ROOT, import_s)
    finally:
        try:
            from repro.runtime.distributed import shutdown_pools

            shutdown_pools()
        finally:
            # Nothing this run started may outlive it, whatever went wrong.
            proc.stop_children()
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass
    _print_human(final, detail)
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(final))
    return 0


def _print_human(final: Dict[str, Any], detail: Dict[str, Any]) -> None:
    host = detail["host"]
    print(f"workload {detail['workload']}  seed {host['seed']}  size {host['size']}  "
          f"trace {detail['trace']}  cpus {host['cpu_count']}  "
          f"load {host['load_1min_at_start']:.2f}  git {host['git_sha'][:12]}")
    print(f"  knobs {host['knobs']}")
    print(f"  attempted {final['attempted']}  failed {final['failed']}  "
          f"fail_share {detail['fail_share']:.6f}  correct {final['correct']}")
    if host["oversubscribed"]:
        print("  oversubscribed: fewer CPUs than mp workers; wall metrics are not comparable")
    for name, m in final["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


# ---------------------------------------------------------------------------
# Suites: each workload in its own fresh interpreter
# ---------------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: int, size: str
           ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    cmd = [sys.executable, str(PERF / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perf: {workload} (trace {trace}) exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    detail = next(json.loads(line[len(DETAIL_PREFIX):]) for line in reversed(lines)
                  if line.startswith(DETAIL_PREFIX))
    return final, detail


def _benchmark_json() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _row(name: str, unit: str, samples: List[float]) -> str:
    return (f"  {name:48s} {median(samples):>14.6g} {unit:6s} "
            f"N={len(samples)} IQR={iqr(samples):.4g}")


def _suite_pass(names: List[str], seeds: List[int], seconds: float, trace: int,
                size: str) -> Dict[str, Dict[str, Any]]:
    """Run every workload once per seed; returns per workload the metric
    samples, details and failure counts."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in names:
        cell = out[name] = {"samples": {}, "units": {}, "details": [],
                            "attempted": 0, "failed": 0}
        for seed in seeds:
            final, detail = _spawn(name, seed, seconds, trace, size)
            cell["details"].append(detail)
            cell["attempted"] += final["attempted"]
            cell["failed"] += final["failed"]
            for metric, m in final["metrics"].items():
                cell["samples"].setdefault(metric, []).append(m["value"])
                cell["units"][metric] = m["unit"]
    return out


def _refused(detail: Dict[str, Any], metric: str) -> bool:
    """Wall metrics of an oversubscribed mp run are not reported."""
    return (detail["host"]["oversubscribed"] and detail["trace"] == 0
            and metric != "peak_rss_mb")


def _print_pass(title: str, result: Dict[str, Dict[str, Any]]) -> None:
    print(f"== {title}")
    for name, cell in result.items():
        detail = cell["details"][0]
        share = cell["failed"] / max(cell["attempted"], 1)
        print(f"{name}: attempted {cell['attempted']} failed {cell['failed']} "
              f"fail_share {share:.6f}  knobs {detail['host']['knobs']}")
        for metric, samples in cell["samples"].items():
            if _refused(detail, metric):
                print(f"  {metric:48s} oversubscribed (cpu_count < mp workers): refused")
                continue
            print(_row(metric, cell["units"][metric], samples))
        print(f"  counts {detail['counts']}  repeat_exactly {detail['counts_repeat']}")


def _ledger(result: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    cells = {}
    for name, cell in result.items():
        detail = cell["details"][0]
        cells[name] = {
            "knobs": detail["host"]["knobs"],
            "input_digest": detail["input_digest"],
            "attempted": cell["attempted"],
            "failed": cell["failed"],
            "fail_share": cell["failed"] / max(cell["attempted"], 1),
            "oversubscribed": detail["host"]["oversubscribed"],
            "counts": detail["counts"],
            "metrics": {
                metric: {"median": median(samples), "iqr": iqr(samples),
                         "n": len(samples), "unit": cell["units"][metric]}
                for metric, samples in cell["samples"].items()
                if not _refused(detail, metric)
            },
        }
    return cells


def run_suite(args: argparse.Namespace) -> int:
    _require_program()
    bench = _benchmark_json()
    names = [w["name"] for w in bench["workloads"]]
    size = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (
        0.6 if args.smoke else float(bench["run_seconds"]))
    seeds = [args.seed + i for i in range(args.runs)]

    if args.aa:
        return _run_aa(bench, names, seeds, seconds, size)

    ledger: Dict[str, Any] = {}
    untraced = _suite_pass(names, seeds, seconds, 0, size)
    _print_pass("end-to-end (untraced pass)", untraced)
    ledger["end_to_end"] = _ledger(untraced)
    failed = sum(c["failed"] for c in untraced.values())
    host = untraced[names[0]]["details"][0]["host"]
    if args.traced or args.smoke:
        traced = _suite_pass(names, seeds[:1], seconds, 1, size)
        _print_pass("per-layer (traced pass)", traced)
        ledger["per_layer"] = _ledger(traced)
        failed += sum(c["failed"] for c in traced.values())
    out = args.out or (None if args.smoke else str(PERF / "baseline.json"))
    if out:
        stamp = {k: host[k] for k in ("cpu_count", "load_1min_at_start", "python",
                                      "numpy", "git_sha")}
        stamp.update(seeds=seeds, seconds=seconds, size=size)
        Path(out).write_text(json.dumps({"host": stamp, **ledger}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 1 if failed else 0


def _run_aa(bench: Dict[str, Any], names: List[str], seeds: List[int],
            seconds: float, size: str) -> int:
    """Two sets of runs of the same code on the same seeds: per metric x
    workload both medians, their relative gap (positive = B worse) and
    the bound; a pair outside its bound is ``unresolved``."""
    a = _suite_pass(names, seeds, seconds, 0, size)
    b = _suite_pass(names, seeds, seconds, 0, size)
    unresolved = 0
    print(f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} {'gap':>8s} {'bound':>6s}")
    for name in names:
        for spec in bench["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            ma, mb = median(a[name]["samples"][metric]), median(b[name]["samples"][metric])
            gap = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            verdict = "" if gap <= bound else "unresolved"
            unresolved += bool(verdict)
            print(f"{name:14s} {metric:16s} {ma:12.5g} {mb:12.5g} {gap:+8.3f} {bound:6.2f} {verdict}")
        fa, fb = a[name]["failed"], b[name]["failed"]
        counts_a = [d["counts"] for d in a[name]["details"]]
        counts_b = [d["counts"] for d in b[name]["details"]]
        same = counts_a == counts_b
        digests = [d["input_digest"] for d in a[name]["details"]] == \
            [d["input_digest"] for d in b[name]["details"]]
        if fa or fb or not same or not digests:
            unresolved += 1
        print(f"{name:14s} failed A={fa} B={fb}  per-op counts repeat exactly: {same}  "
              f"inputs identical: {digests}")
    print(f"unresolved: {unresolved}")
    return 1 if unresolved else 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="run this one workload in this process (driver form)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="timed-phase length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--spans-out", help="with --trace 1: write the benchmark's spans here")
    p.add_argument("--traced", action="store_true", help="suite: add the per-layer pass")
    p.add_argument("--aa", action="store_true", help="suite: run twice and compare")
    p.add_argument("--smoke", action="store_true", help="suite: toy sizes, both passes")
    p.add_argument("--runs", type=int, default=1, help="suite: runs (seeds) per workload")
    p.add_argument("--out", help="suite: write the ledger here")
    args = p.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = 10.0
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    # Worker processes of the mp executor re-import __main__ under spawn;
    # nothing above runs at import.
    sys.exit(main())
