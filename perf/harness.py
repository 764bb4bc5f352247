"""The measurement protocol of one workload run.

Untraced pass (end-to-end metrics)::

    program import (once) + set-up x3..15 (median) -> setup_s; oracle time excluded
    -> 2 warm-up ops (50 requests for serve-*)
    -> timed closed loop for --seconds, RSS/CPU of the process tree sampled
    -> verification against the engine-free oracle, outside the timed region

Traced pass (per-layer metrics): one set-up, then plain / benchmark-span /
program-tracer operations interleaved for --seconds, then the direct-call
probes.  End-to-end numbers are never taken from this pass.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perf import layers, oracles
from perf.proc import TreeSampler
from perf.stats import iqr, median, percentile, percentile_supported, samples_beyond
from perf.workloads import Workload

#: End-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Set-up is repeated at least ``MIN_SETUPS`` times and until
#: ``SETUP_BUDGET_S`` has gone into it (at most ``MAX_SETUPS`` times), so
#: that the median of a 20 ms set-up rests on more than three samples.
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 15


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_stamp(root: Path, wl: Workload, load_at_start: float) -> Dict[str, Any]:
    cpu_count = os.cpu_count() or 1
    return {
        "cpu_count": cpu_count,
        "load_1min_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "seed": wl.seed,
        "size": wl.size_name,
        "knobs": wl.knobs,
        "oversubscribed": wl.oversubscribed(cpu_count),
    }


def _final(correct: bool, attempted: int, failed: int,
           values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def run_untraced(wl: Workload, seconds: float, quick: bool, root: Path,
                 import_s: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """End-to-end metrics of one workload; returns (result line, detail).
    ``import_s`` is what this interpreter spent importing the program;
    ``quick`` (smoke) sets up once."""
    load = os.getloadavg()[0]
    oracles.self_test()
    setup_times: List[float] = []
    while not setup_times or (not quick and (
        len(setup_times) < MIN_SETUPS
        or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS)
    )):
        if setup_times:
            wl.teardown()
        t0 = time.perf_counter()
        wl.build()
        setup_times.append(time.perf_counter() - t0)
    try:
        wl.prepare_oracle()
        digest = wl.input_digest()
        wl.warmup()
        with TreeSampler() as sampler:
            log = wl.run(seconds, ("plain",))["plain"]
        wrong = wl.verify(log)
    finally:
        wl.teardown()

    attempted = max(log.attempted, 1)
    failed = log.errors + wrong
    done = len(log.latencies)
    if not done:
        raise RuntimeError(f"{wl.name}: no operation completed")
    tail = wl.tail_pct
    values = {
        "setup_s": import_s + median(setup_times),
        "op_p50_ms": median(log.latencies) * 1e3,
        "op_p95_ms": percentile(log.latencies, tail) * 1e3,
        "ops_per_s": done / log.wall_s,
        "cpu_ms_per_op": sampler.cpu_s / done * 1e3,
        "peak_rss_mb": sampler.peak_rss_bytes / 1e6,
    }
    detail = {
        "workload": wl.name,
        "trace": 0,
        "host": host_stamp(root, wl, load),
        "input_digest": digest,
        "ops": done,
        "errors": log.errors,
        "wrong": wrong,
        "fail_share": oracles.fail_share(log.errors, wrong, attempted),
        "timed_wall_s": log.wall_s,
        "import_s": import_s,
        "setup_samples_s": setup_times,
        "op_ms": {"n": done, "median": values["op_p50_ms"],
                  "iqr": iqr(log.latencies) * 1e3},
        "tail": {"percentile": tail, "samples_beyond": samples_beyond(done, tail),
                 "supported": percentile_supported(done, tail)},
        **_counts(log.counts),
        "tree_pids": len(sampler.pids),
    }
    return _final(failed == 0, attempted, failed, values, END_TO_END), detail


def _counts(counts: List[Dict[str, float]]) -> Dict[str, Any]:
    """The first op's counts and whether every op repeated them."""
    stable = [layers.stable_counts(c) for c in counts]
    first = stable[0] if stable else {}
    return {"counts": first, "counts_repeat": all(c == first for c in stable)}


def run_traced(wl: Workload, seconds: float, quick: bool, root: Path,
               spans_out: Optional[str]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Per-layer metrics of one workload; returns (result line, detail).
    The benchmark's spans are written to ``spans_out`` when given."""
    load = os.getloadavg()[0]
    wl.build()
    try:
        wl.prepare_oracle()
        digest = wl.input_digest()
        wl.warmup()
        logs = wl.run(seconds, wl.trace_modes)
        wrong = sum(wl.verify(log) for log in logs.values())
        values = layers.measure(wl, logs, quick)
        if spans_out:
            wl.recorder.dump(spans_out)
    finally:
        wl.teardown()
    attempted = max(sum(log.attempted for log in logs.values()), 1)
    errors = sum(log.errors for log in logs.values())
    failed = errors + wrong
    counts = [c for log in logs.values() for c in log.counts]
    detail = {
        "workload": wl.name,
        "trace": 1,
        "host": host_stamp(root, wl, load),
        "input_digest": digest,
        "ops": {mode: len(log.latencies) for mode, log in logs.items()},
        "errors": errors,
        "wrong": wrong,
        "fail_share": oracles.fail_share(errors, wrong, attempted),
        "spans_recorded": len(wl.recorder.spans),
        **_counts(counts),
    }
    return _final(failed == 0, attempted, failed, values, layers.PER_LAYER), detail
