"""Crash detection, diagnosis, and worker respawn for the mp executor.

The :class:`WorkerSupervisor` is the policy layer above the raw
:class:`~repro.runtime.distributed.executor.WorkerPool`: the pool owns
the processes and pipes; the supervisor decides what a failure *means*
and how to repair it.

Detection uses three signals, in order of decisiveness:

1. **exit-code inspection** — ``Process.is_alive()`` / ``exitcode``
   turns false/negative the instant the OS reaps the worker, so true
   death (e.g. SIGKILL) is diagnosed without waiting out a timeout;
2. **reply timeout** — a worker that is alive but never answers (a hang,
   a deadlock, a wedged pipe) is declared dead once the reply deadline
   passes; the supervisor kills it so the respawn starts clean;
3. **heartbeat** — an on-demand ``ping`` sweep over all idle workers
   (used by :meth:`heal` before respawning, and exposed through
   ``FlashEngine.worker_health``) that catches hung workers *between*
   supersteps instead of mid-kernel.

Transient pipe errors (``EINTR``/``EAGAIN``-class) are *not* death: the
pool retries the write a bounded number of times with exponential
backoff before giving up (:meth:`is_transient`, :meth:`backoff_delays`).

Repair (:meth:`respawn`) rebuilds everything the dead process held:

* a fresh OS process on the same rank and a fresh duplex pipe;
* the shared-memory graph views (re-attached from the driver's still-
  live segments — the graph bytes are *not* re-serialized);
* every open session: re-opened, with the driver's authoritative
  property columns re-shipped and the critical set re-marked.  Worker-
  side coordinated snapshots are lost with the process; a later
  ``restore`` reports them missing and the driver back-fills full
  columns (the PR-2 checkpoint machinery's existing fallback).

Every respawn is charged: wall time and re-shipped bytes accumulate on
the pool (``respawns`` / ``respawn_wall_s`` / ``bytes_reshipped``) and
are emitted as ``worker.respawn`` tracing spans; the per-session state
rebuild is a ``recovery.restore`` span.
"""

from __future__ import annotations

import errno
import os
import time
from typing import Any, Dict, List

from repro.errors import FlashUsageError, WorkerCrashError

#: errno values treated as transient on a pipe write (retried with
#: backoff instead of declaring the worker dead).
_TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.EWOULDBLOCK})


def reply_timeout() -> float:
    """Seconds a worker gets to answer one request (``REPRO_MP_TIMEOUT``,
    default 120).  Read per request — tests ``monkeypatch.setenv`` it
    against a long-lived shared pool — and before anything is sent, so
    a malformed value is a usage error, never a half-done round-trip."""
    raw = os.environ.get("REPRO_MP_TIMEOUT", "120")
    try:
        return float(raw)
    except ValueError:
        raise FlashUsageError(
            f"REPRO_MP_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None


class WorkerSupervisor:
    """Failure policy for one :class:`WorkerPool`."""

    #: Send retries on a transient pipe error, and the seed of their
    #: exponential backoff schedule (base, 2·base, 4·base, ...).
    max_transient_retries = 3
    backoff_base_s = 0.02

    def __init__(self, pool) -> None:
        self.pool = pool

    # -- classification -------------------------------------------------
    def is_transient(self, exc: BaseException) -> bool:
        """Whether a pipe error is worth retrying (EINTR-class) rather
        than proof of death (broken pipe / closed fd)."""
        if isinstance(exc, (InterruptedError, BlockingIOError)):
            return True
        if isinstance(exc, BrokenPipeError):
            return False
        return isinstance(exc, OSError) and exc.errno in _TRANSIENT_ERRNOS

    def backoff_delays(self) -> List[float]:
        """The bounded exponential backoff schedule for send retries."""
        return [self.backoff_base_s * (2 ** i) for i in range(self.max_transient_retries)]

    # -- diagnosis ------------------------------------------------------
    def diagnose(self, rank: int) -> Dict[str, Any]:
        """One worker's health from process-level signals alone (no
        message traffic): ``status`` is ``running`` / ``exited`` /
        ``dead`` (already marked crashed)."""
        pool = self.pool
        proc = pool._procs[rank]
        alive = proc.is_alive()
        status = "running" if alive else "exited"
        if rank in pool._dead_ranks:
            status = "dead"
        return {
            "rank": rank,
            "alive": alive,
            "exitcode": proc.exitcode,
            "pid": proc.pid,
            "status": status,
        }

    def health(self) -> List[Dict[str, Any]]:
        """Process-level health of every rank (cheap; no messages)."""
        return [self.diagnose(rank) for rank in range(self.pool.nworkers)]

    def heartbeat(self, timeout: float = 1.0, tracer=None) -> Dict[int, str]:
        """Ping every worker and wait ``timeout`` seconds for each
        reply; hung workers are killed and marked dead (a later
        :meth:`heal` or lazy send respawns them).  Only call between
        operations — the wire protocol is strict request/reply, so a
        heartbeat must not race pending kernel replies."""
        pool = self.pool
        out: Dict[int, str] = {}
        for rank in range(pool.nworkers):
            if rank in pool._dead_ranks:
                out[rank] = "dead"
                continue
            proc = pool._procs[rank]
            if not proc.is_alive():
                pool._mark_crashed(rank, "heartbeat")
                out[rank] = "dead"
                continue
            try:
                pool._send(rank, "ping", -1, None, tracer, heal=False)
            except WorkerCrashError:
                out[rank] = "dead"
                continue
            conn = pool._conns[rank]
            if not conn.poll(timeout):
                pool._mark_crashed(rank, "heartbeat", hung_after=timeout)
                out[rank] = "hung"
                continue
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                pool._mark_crashed(rank, "heartbeat")
                out[rank] = "dead"
                continue
            pool.bytes_recv += len(blob)
            pool.messages_recv += 1
            out[rank] = "ok"
        return out

    # -- repair ---------------------------------------------------------
    def respawn(self, rank: int, tracer=None) -> Dict[str, Any]:
        """Replace the dead worker ``rank`` with a fresh process and
        rebuild everything it held; returns a report with the recovery
        wall time and re-shipped volume."""
        pool = self.pool
        t0 = time.perf_counter()
        bytes0 = pool.bytes_sent
        span = (
            tracer.start("worker.respawn", "distributed", rank=rank)
            if tracer is not None and tracer.enabled
            else None
        )
        pool._reap(rank)
        pool._spawn(rank)
        pool._dead_ranks.discard(rank)
        pool.request_one(rank, "ping", -1, None, tracer, heal=False)
        for entry in pool._graphs.values():
            token, _graph, _refs, _shm, meta = entry
            pool.request_one(rank, "put_graph", -1, (token, meta), tracer, heal=False)
        values = 0
        columns = 0
        for session in list(pool.sessions.values()):
            shipped_values, shipped_columns = session.reopen_worker(rank, tracer)
            values += shipped_values
            columns += shipped_columns
        wall_s = time.perf_counter() - t0
        shipped_bytes = pool.bytes_sent - bytes0
        pool.respawns += 1
        pool.respawn_wall_s += wall_s
        pool.bytes_reshipped += shipped_bytes
        if span is not None:
            span.end(
                wall_s=round(wall_s, 6),
                bytes=shipped_bytes,
                values=values,
                columns=columns,
                sessions=len(pool.sessions),
            )
        return {
            "rank": rank,
            "wall_s": wall_s,
            "bytes": shipped_bytes,
            "values": values,
            "columns": columns,
        }

    def heal(self, tracer=None, ping: bool = True) -> Dict[str, Any]:
        """Respawn every dead worker (optionally heartbeating first so
        hung-but-alive workers are caught too); returns the aggregate
        report the recovery layer charges."""
        pool = self.pool
        if ping:
            self.heartbeat(timeout=min(1.0, reply_timeout()), tracer=tracer)
        report: Dict[str, Any] = {
            "respawned": [],
            "wall_s": 0.0,
            "bytes": 0,
            "values": 0,
            "columns": 0,
        }
        for rank in sorted(pool._dead_ranks):
            one = self.respawn(rank, tracer)
            report["respawned"].append(rank)
            report["wall_s"] += one["wall_s"]
            report["bytes"] += one["bytes"]
            report["values"] += one["values"]
            report["columns"] += one["columns"]
        return report
