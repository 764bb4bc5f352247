"""Driver-side of the multi-process executor.

Architecture (docs/distributed.md has the full picture):

* the **driver** (parent process) runs the algorithm program, holds the
  authoritative vertex state — the same typed column store every engine
  holds — and commits through the one ``Flashware.barrier()`` — so the
  *charged* (simulated) metrics of an ``executor="mp"`` run are identical
  to the inline run by construction;
* a persistent :class:`WorkerPool` holds one OS process per partition;
  each worker runs :mod:`repro.core.interp` — the loops the inline
  engine runs — over the vertices it masters, and :class:`DistSession`
  is only what is specific to having several of them: splitting a
  superstep's vertices by owner, the transport, and merging the replies;
* after every barrier its columnar commit is distributed as **delta
  batches**: each changed vertex's critical properties go to every other
  worker (charged for the necessary-mirror scope, the rest rides along to
  serve beyond-neighborhood reads), and the owner gets the full change.
  Columns cross the pipe as they are stored (arrays or lists), so
  workers read the same Python scalars the driver does.
  Real message/entry counts are attached to each
  :class:`~repro.runtime.metrics.SuperstepRecord` as ``rec.dist`` so
  tests can hold them against the simulated charges.

The wire protocol is strict request/reply over one pipe per worker;
the driver serializes every request itself (so it can count bytes and
emit ``worker.send``/``worker.recv`` trace instants) and drains all
outstanding replies before raising, keeping the pipes clean.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import signal as _signal
import time
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.core.edgeset import BaseEdges, EdgeSet
from repro.core.interp import Temp, dense_targets
from repro.errors import DistributedError, FlashUsageError, WorkerCrashError
from repro.runtime.distributed import shipping
from repro.runtime.distributed.supervisor import WorkerSupervisor, reply_timeout
from repro.runtime.flashware import Flashware
from repro.runtime.metrics import SuperstepRecord
from repro.runtime.state import VertexState


class WorkerPool:
    """A set of persistent worker processes plus their pipes.

    Pools are shared across engines (see :func:`get_pool`): spawning a
    process per engine would dominate runtime in test suites that build
    hundreds of engines.  Sessions multiplex over the pool by id."""

    def __init__(self, nworkers: int):
        import multiprocessing as mp

        self.nworkers = nworkers
        method = os.environ.get("REPRO_MP_START", "spawn")
        self._ctx = mp.get_context(method)
        self._conns: List[Any] = [None] * nworkers
        self._procs: List[Any] = [None] * nworkers
        self.bytes_sent = 0
        self.bytes_recv = 0
        self.messages_sent = 0
        self.messages_recv = 0
        # id(graph) -> [token, graph, refs, shm, meta]; ``meta`` is kept so
        # a respawned worker can re-attach to the still-live shm segment.
        self._graphs: Dict[int, List[Any]] = {}
        self._next_token = itertools.count(1)
        self._dead = False  # whole-pool shutdown (not a single crash)
        self._dead_ranks: Set[int] = set()  # crashed ranks awaiting respawn
        #: Open sessions by sid — the supervisor re-opens each of them on
        #: a respawned worker.
        self.sessions: Dict[int, "DistSession"] = {}
        self.supervisor = WorkerSupervisor(self)
        # Respawn accounting (charged by the recovery layer).
        self.respawns = 0
        self.respawn_wall_s = 0.0
        self.bytes_reshipped = 0
        for rank in range(nworkers):
            self._spawn(rank)
        self.broadcast("ping", -1, None)

    # ------------------------------------------------------------------
    def _spawn(self, rank: int) -> None:
        """Start (or restart) the worker process for ``rank`` with a
        fresh duplex pipe."""
        from repro.runtime.distributed.worker import worker_main

        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(rank, child_conn),
            name=f"repro-worker-{rank}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[rank] = parent_conn
        self._procs[rank] = proc

    def _reap(self, rank: int) -> None:
        """Tear down the dead worker's process and pipe (idempotent)."""
        proc = self._procs[rank]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5)
        conn = self._conns[rank]
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def _mark_crashed(
        self, rank: int, op: str, hung_after: Optional[float] = None
    ) -> WorkerCrashError:
        """Record ``rank`` as dead and build the structured crash error
        (returned, not raised, so callers control chaining).  A hung
        worker (silent for ``hung_after`` seconds) is killed so the pipe
        state is unambiguous."""
        hung = hung_after is not None
        self._dead_ranks.add(rank)
        proc = self._procs[rank]
        if hung and proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5)
        exitcode = proc.exitcode if proc is not None else None
        if hung:
            diagnosis = f"stopped responding (timeout {hung_after}s; killed)"
        elif exitcode is not None and exitcode < 0:
            try:
                sig = _signal.Signals(-exitcode).name
            except ValueError:
                sig = str(-exitcode)
            diagnosis = f"died (killed by {sig})"
        elif exitcode is not None:
            diagnosis = f"died (exit code {exitcode})"
        else:
            diagnosis = "pipe closed"
        return WorkerCrashError(
            f"worker {rank} {diagnosis} during {op!r}",
            worker=rank,
            exitcode=exitcode,
            phase=op,
        )

    def _send(
        self, rank: int, op: str, sid: int, payload: Any, tracer=None, heal: bool = True
    ) -> None:
        if rank in self._dead_ranks:
            if not heal:
                raise WorkerCrashError(
                    f"worker {rank} is dead; cannot send {op!r}",
                    worker=rank,
                    phase=op,
                )
            # Lazy heal: a send to a known-dead rank respawns it first
            # (the between-superstep path goes through supervisor.heal()).
            self.supervisor.respawn(rank, tracer)
        blob = pickle.dumps((op, sid, payload), protocol=pickle.HIGHEST_PROTOCOL)
        delays = self.supervisor.backoff_delays()
        for attempt in range(len(delays) + 1):
            try:
                self._conns[rank].send_bytes(blob)
                break
            except OSError as exc:
                if self.supervisor.is_transient(exc) and attempt < len(delays):
                    time.sleep(delays[attempt])
                    continue
                raise self._mark_crashed(rank, op) from exc
        self.bytes_sent += len(blob)
        self.messages_sent += 1
        if tracer is not None and tracer.enabled:
            tracer.instant("worker.send", "distributed", rank=rank, op=op, bytes=len(blob))

    def _recv(self, rank: int, op: str, tracer, timeout: float) -> Any:
        conn = self._conns[rank]
        proc = self._procs[rank]
        deadline = time.monotonic() + timeout
        wait = 0.02
        while not conn.poll(min(wait, max(deadline - time.monotonic(), 0.0))):
            if not proc.is_alive() and not conn.poll(0):
                # Early death detection: the exit code is decisive, no
                # need to wait out the reply timeout.  The extra poll(0)
                # catches a final reply racing the process exit.
                raise self._mark_crashed(rank, op)
            if time.monotonic() >= deadline:
                raise self._mark_crashed(
                    rank, op, hung_after=timeout if proc.is_alive() else None
                )
            wait = min(wait * 2, 0.5)
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._mark_crashed(rank, op) from exc
        self.bytes_recv += len(blob)
        self.messages_recv += 1
        if tracer is not None and tracer.enabled:
            tracer.instant("worker.recv", "distributed", rank=rank, op=op, bytes=len(blob))
        reply = pickle.loads(blob)
        if reply[0] == "ok":
            return reply[1]
        _status, name, exc_blob, tb = reply
        raise self._rebuild_exception(rank, op, name, exc_blob, tb)

    @staticmethod
    def _rebuild_exception(
        rank: int, op: str, name: str, exc_blob: Optional[bytes], tb: str
    ) -> BaseException:
        """Reconstruct a worker-raised exception from its error reply.

        If the pickled exception round-trips it is re-raised as-is;
        otherwise (unpicklable exception class, or the blob deserializes
        to something else entirely) the fallback is a
        :class:`DistributedError` carrying the worker's formatted
        traceback.  Either way the original traceback text survives on
        ``worker_traceback``."""
        original: Optional[BaseException] = None
        if exc_blob is not None:
            try:
                loaded = pickle.loads(exc_blob)
            except Exception:
                loaded = None
            if isinstance(loaded, BaseException):
                original = loaded
        if original is not None and (
            isinstance(original, DistributedError) or type(original).__name__ == name
        ):
            original.worker_traceback = tb
            return original
        err = DistributedError(f"worker {rank} raised {name} during {op!r}:\n{tb}")
        err.worker_traceback = tb
        if original is not None:
            err.__cause__ = original
        return err

    def request_one(
        self, rank: int, op: str, sid: int, payload: Any, tracer=None, heal: bool = True
    ) -> Any:
        """One request/reply round-trip with a single worker."""
        timeout = reply_timeout()  # before the send: a bad value costs no bytes
        self._send(rank, op, sid, payload, tracer, heal=heal)
        return self._recv(rank, op, tracer, timeout)

    def request_many(
        self, items: Sequence[Tuple[int, str, int, Any]], tracer=None
    ) -> List[Any]:
        """Send all requests, then collect all replies (in order).  Every
        reply that *can* be drained is drained even when one raises —
        including when a worker crashes: the surviving workers' pipes
        stay clean, so the pool remains usable after a single-worker
        failure (the recovery layer respawns the dead rank)."""
        timeout = reply_timeout()  # before the first send, as in request_one
        first_error: Optional[BaseException] = None
        crashed: Set[int] = set()
        sent: List[bool] = []
        for rank, op, sid, payload in items:
            if rank in crashed:
                sent.append(False)
                continue
            try:
                self._send(rank, op, sid, payload, tracer)
            except WorkerCrashError as exc:
                crashed.add(rank)
                sent.append(False)
                if first_error is None:
                    first_error = exc
            else:
                sent.append(True)
        replies: List[Any] = []
        for was_sent, (rank, op, _sid, _payload) in zip(sent, items):
            if not was_sent or rank in crashed:
                replies.append(None)
                continue
            try:
                replies.append(self._recv(rank, op, tracer, timeout))
            except WorkerCrashError as exc:
                crashed.add(rank)
                replies.append(None)
                if first_error is None:
                    first_error = exc
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                replies.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return replies

    def broadcast(self, op: str, sid: int, payload: Any, tracer=None) -> List[Any]:
        return self.request_many(
            [(rank, op, sid, payload) for rank in range(self.nworkers)], tracer
        )

    # ------------------------------------------------------------------
    def acquire_graph(self, graph) -> int:
        """Ship a graph to every worker once; later acquires of the same
        object just bump a refcount."""
        entry = self._graphs.get(id(graph))
        if entry is not None:
            entry[2] += 1
            return entry[0]
        token = next(self._next_token)
        meta, shm = shipping.export_graph(graph)
        self.broadcast("put_graph", -1, (token, meta))
        self._graphs[id(graph)] = [token, graph, 1, shm, meta]
        return token

    def release_graph(self, graph) -> None:
        entry = self._graphs.get(id(graph))
        if entry is None:
            return
        entry[2] -= 1
        if entry[2] > 0:
            return
        del self._graphs[id(graph)]
        if not self._dead:
            live = [
                (rank, "drop_graph", -1, entry[0])
                for rank in range(self.nworkers)
                if rank not in self._dead_ranks
            ]
            try:
                self.request_many(live)
            except DistributedError:
                pass
        self._unlink(entry[3])

    @staticmethod
    def _unlink(shm) -> None:
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass

    def shutdown(self) -> None:
        for rank in range(self.nworkers):
            try:
                self._send(rank, "stop", -1, None, heal=False)
            except Exception:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=2)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except Exception:
                pass
        for entry in self._graphs.values():
            self._unlink(entry[3])
        self._graphs.clear()
        self.sessions.clear()
        self._dead = True


_POOLS: Dict[int, WorkerPool] = {}


def get_pool(nworkers: int) -> WorkerPool:
    """The shared pool with ``nworkers`` processes, started on demand."""
    pool = _POOLS.get(nworkers)
    if pool is None or pool._dead:
        pool = WorkerPool(nworkers)
        _POOLS[nworkers] = pool
    return pool


def shutdown_pools() -> None:
    """Stop every pool (atexit hook; also handy for tests)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Parent-side session
# ---------------------------------------------------------------------------
_SIDS = itertools.count(1)

#: ``WorkerPool`` counters a session reports as deltas since it opened.
_TRAFFIC_COUNTERS = ("bytes_sent", "bytes_recv", "messages_sent", "messages_recv")

#: Real entries counted per superstep (``rec.dist``) and totalled per session.
_STEP_COUNTERS = (
    "sync_entries", "extra_entries", "commit_entries", "reduce_entries",
    "temp_entries", "withheld_entries", "withheld_values",
)


class DistSession:
    """One engine's connection to the pool: kernel offload, commit
    distribution, and the real-traffic accounting."""

    def __init__(self, pool: WorkerPool, fw: "DistributedFlashware", partition_strategy: str):
        self.pool = pool
        self.fw = fw
        self.sid = next(_SIDS)
        self.graph = fw.graph
        self.nworkers = pool.nworkers
        self.owners = fw.partition.owners()
        self.members = [fw.partition.members(p).tolist() for p in range(self.nworkers)]
        # The pool outlives sessions; this session's traffic is what the
        # pool's counters moved by since it opened.
        self._traffic0 = {name: getattr(pool, name) for name in _TRAFFIC_COUNTERS}
        self.token = pool.acquire_graph(fw.graph)
        self._open_payload = {
            "graph_token": self.token,
            "nworkers": self.nworkers,
            "partition_strategy": partition_strategy,
            "sync_critical_only": fw.options.sync_critical_only,
        }
        pool.broadcast("open", self.sid, self._open_payload)
        pool.sessions[self.sid] = self
        self.closed = False
        self._slowed: Set[int] = set()  # ranks under ``slow`` chaos
        #: Per-committed-superstep real-traffic log (mirrors metrics.records).
        self.per_superstep: List[Dict[str, Any]] = []
        self._step: Optional[Dict[str, int]] = None
        self._step_cpu: List[float] = [0.0] * self.nworkers
        self.totals: Dict[str, Any] = {
            **dict.fromkeys(_STEP_COUNTERS, 0),
            "bootstrap_columns": 0,
            "reshipped_columns": 0,
            "reshipped_values": 0,
            "worker_cpu_s": 0.0,
            "critical_path_s": 0.0,
        }

    @property
    def tracer(self):
        return self.fw.tracer

    def _request_many(self, items):
        return self.pool.request_many(items, self.tracer)

    def _broadcast(self, op: str, *args: Any):
        """Call the session method ``op`` with ``args`` on every worker."""
        return self.pool.broadcast(op, self.sid, args, self.tracer)

    # -- step accounting -------------------------------------------------
    def begin_step(self) -> None:
        self._step = {
            **dict.fromkeys(_STEP_COUNTERS, 0),
            "bytes_sent0": self.pool.bytes_sent,
            "bytes_recv0": self.pool.bytes_recv,
        }
        self._step_cpu = [0.0] * self.nworkers

    def step_add(self, key: str, n: int) -> None:
        if self._step is not None:
            self._step[key] += n

    def _step_add_cpu(self, rank: int, cpu: Optional[float]) -> None:
        if self._step is not None and cpu is not None:
            self._step_cpu[rank] += cpu

    def finish_step(self, rec: SuperstepRecord) -> None:
        step = self._step
        cpu = self._step_cpu
        self._step = None
        if step is None:
            return
        stats = {
            "index": rec.index,
            "kind": rec.kind,
            "label": rec.label,
            **{key: step[key] for key in _STEP_COUNTERS},
            "bytes_sent": self.pool.bytes_sent - step["bytes_sent0"],
            "bytes_recv": self.pool.bytes_recv - step["bytes_recv0"],
            "charged_sync_messages": rec.sync_messages,
            "charged_reduce_messages": rec.reduce_messages,
            "worker_cpu_s": [round(c, 6) for c in cpu],
        }
        rec.dist = stats
        for key in _STEP_COUNTERS:
            self.totals[key] += step[key]
        self.totals["worker_cpu_s"] += sum(cpu)
        self.totals["critical_path_s"] += max(cpu) if cpu else 0.0
        if rec.index >= 0:
            self.per_superstep.append(stats)

    def summary(self) -> Dict[str, Any]:
        """Headline real-traffic totals (the counterpart of
        ``Metrics.summary()`` for the physical execution)."""
        out = dict(self.totals)
        out["worker_cpu_s"] = round(out["worker_cpu_s"], 6)
        out["critical_path_s"] = round(out["critical_path_s"], 6)
        out["workers"] = self.nworkers
        for name, at_open in self._traffic0.items():
            out[name] = getattr(self.pool, name) - at_open
        out["respawns"] = self.pool.respawns
        out["respawn_wall_s"] = round(self.pool.respawn_wall_s, 6)
        out["bytes_reshipped"] = self.pool.bytes_reshipped
        out["per_superstep"] = list(self.per_superstep)
        return out

    # -- property lifecycle relays ---------------------------------------
    def add_property(self, name: str, spec: Tuple[str, Any]) -> None:
        self._broadcast("add_property", name, spec)

    def remove_property(self, name: str) -> None:
        self._broadcast("remove_property", name)

    def ship_column(self, name: str, column: Any) -> None:
        self.totals["bootstrap_columns"] += 1
        self._broadcast("set_column", name, column)

    def reship_column(self, name: str, column: Any) -> None:
        """Re-broadcast a full column whose mirror deltas were withheld
        under a communication plan that has since widened — every
        worker's copy becomes fresh again before the next kernel runs."""
        self.totals["reshipped_columns"] += 1
        self.totals["reshipped_values"] += len(column)
        self._broadcast("set_column", name, column)

    def mark_critical(self, names: List[str]) -> None:
        self._broadcast("mark_critical", list(names))

    # -- checkpoint / recovery -------------------------------------------
    def snapshot(self, tag: int) -> None:
        self._broadcast("snapshot", tag)

    def restore(self, tag: int, properties: List[str]) -> Set[str]:
        replies = self._broadcast("restore", tag, list(properties))
        missing: Set[str] = set()
        for reply in replies:
            missing.update(reply)
        return missing

    def reset(self) -> None:
        self._broadcast("reset")

    # -- crash recovery / chaos ------------------------------------------
    def reopen_worker(self, rank: int, tracer=None) -> Tuple[int, int]:
        """Rebuild this session on a freshly respawned worker ``rank``:
        re-open the session and re-ship the driver's authoritative
        property columns plus the critical set.  Returns the re-shipped
        (values, columns) for the recovery accounting.  Worker-side
        snapshots died with the old process; a later ``restore`` reports
        them missing and the driver back-fills (the checkpoint store's
        existing fallback)."""
        span = (
            tracer.start("recovery.restore", "recovery", rank=rank, sid=self.sid)
            if tracer is not None and tracer.enabled
            else None
        )
        pool = self.pool
        pool.request_one(rank, "open", self.sid, self._open_payload, tracer, heal=False)
        fw = self.fw
        values = 0
        columns = 0
        for name in list(fw.state.property_names):
            column = fw.state.column(name)
            pool.request_one(
                rank, "set_column", self.sid, (name, column), tracer, heal=False
            )
            values += len(column)
            columns += 1
        critical = sorted(fw._critical)
        if critical:
            pool.request_one(
                rank, "mark_critical", self.sid, (critical,), tracer, heal=False
            )
        self._slowed.discard(rank)
        self.totals["reshipped_columns"] += columns
        self.totals["reshipped_values"] += values
        if span is not None:
            span.end(values=values, columns=columns)
        return values, columns

    def inject_fault(self, worker: int, mode: str) -> None:
        """Inflict a process-level chaos fault on ``worker`` (driven by
        the ``--faults`` plan): ``kill`` SIGKILLs the OS process,
        ``hang`` makes it stop replying, ``slow`` delays its replies.
        Chaos messages are fire-and-forget (no reply), so the crash
        surfaces later through the pool's normal detection machinery."""
        pool = self.pool
        if not 0 <= worker < self.nworkers:
            raise FlashUsageError(
                f"fault worker {worker} out of range (pool has {self.nworkers})"
            )
        if mode == "kill":
            proc = pool._procs[worker]
            if proc is not None and proc.is_alive():
                os.kill(proc.pid, _signal.SIGKILL)
                proc.join(timeout=5)
        elif mode == "hang":
            pool._send(worker, "chaos", self.sid, ("hang", None), self.tracer)
        elif mode == "slow":
            delay = float(os.environ.get("REPRO_CHAOS_SLOW_S", "0.2"))
            pool._send(worker, "chaos", self.sid, ("slow", delay), self.tracer)
            self._slowed.add(worker)
        else:  # pragma: no cover - parse() already validates
            raise FlashUsageError(f"unknown process fault mode {mode!r}")

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.pool.sessions.pop(self.sid, None)
        if not self.pool._dead:
            for rank in sorted(self._slowed - self.pool._dead_ranks):
                try:
                    self.pool._send(
                        rank, "chaos", self.sid, ("slow", 0.0), heal=False
                    )
                except Exception:
                    pass
            self._slowed.clear()
            live = [
                (rank, "close", self.sid, None)
                for rank in range(self.nworkers)
                if rank not in self.pool._dead_ranks
            ]
            try:
                self.pool.request_many(live, self.tracer)
            except DistributedError:
                pass
        self.pool.release_graph(self.graph)

    # ------------------------------------------------------------------
    # Kernel offload
    # ------------------------------------------------------------------
    def _merge_ops(self, engine, ops: List[int]) -> None:
        rec = engine.flashware._current
        for i, n in enumerate(ops):
            rec.worker_ops[i] += n

    def _offload(
        self, engine, op: str, shares: List[list], request: Callable[[list], dict]
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Run kernel ``op`` on every rank whose share (of vertices or
        temps) is non-empty: ship ``request(share)``, then yield
        ``(rank, reply)`` with the reply's ops and CPU seconds merged."""
        items = [
            (w, op, self.sid, shipping.dump_payload(request(share)))
            for w, share in enumerate(shares)
            if share
        ]
        for (w, *_), reply in zip(items, self._request_many(items)):
            self._merge_ops(engine, reply["ops"])
            self._step_add_cpu(w, reply.get("cpu_s"))
            yield w, reply

    def _offload_map(self, engine, op: str, shares, request):
        """:meth:`_offload` for the kernels whose replies are disjoint
        ``out`` / ``updates`` shares (VERTEXMAP, dense)."""
        out: List[int] = []
        updates: Dict[int, Dict[str, Any]] = {}
        for _w, reply in self._offload(engine, op, shares, request):
            out.extend(reply["out"])
            updates.update(reply["updates"])
        out.sort()
        return out, updates

    def _by_owner(self, vids: Iterable[int]) -> List[List[int]]:
        owners = self.owners
        by_w: List[List[int]] = [[] for _ in range(self.nworkers)]
        for vid in vids:
            by_w[owners[vid]].append(vid)
        return by_w

    @staticmethod
    def _edge_mode(engine, edges: EdgeSet, neighbors, vids: List[int]) -> Tuple[Any, ...]:
        """How ``edges`` travels to the worker that walks ``vids``:
        ``E`` by name (the worker has the CSR), a constructed set as the
        adjacency ``neighbors`` (its ``in_sources`` or ``out_targets``)
        enumerates for exactly those vertices."""
        if type(edges) is BaseEdges:
            return ("csr",)
        mat: Dict[int, List[int]] = {}
        for vid in vids:
            adjacent = [int(x) for x in neighbors(engine, vid)]
            if adjacent:
                mat[vid] = adjacent
        return ("mat", mat)

    def run_vertex_map(self, engine, subset, F, M) -> Tuple[List[int], Dict[int, Dict[str, Any]]]:
        return self._offload_map(
            engine, "vertex_map", self._by_owner(subset),
            lambda vids: {"F": F, "M": M, "vids": vids},
        )

    def run_edge_map_dense(
        self, engine, subset, edges: EdgeSet, F, M, C
    ) -> Tuple[List[int], Dict[int, Dict[str, Any]]]:
        if type(edges) is BaseEdges:
            targets_by_w = self.members
        else:
            targets_by_w = self._by_owner(dense_targets(engine, edges))
        shared = {"F": F, "M": M, "C": C, "subset": list(subset)}

        def request(targets: List[int]) -> Dict[str, Any]:
            mode = self._edge_mode(engine, edges, edges.in_sources, targets)
            return {**shared, "targets": targets, "edge_mode": mode}

        return self._offload_map(engine, "dense", targets_by_w, request)

    def run_edge_map_sparse(
        self, engine, subset, edges: EdgeSet, F, M, C, R
    ) -> Tuple[List[int], Dict[int, Dict[str, Any]], Dict[int, Set[int]]]:
        owners = self.owners

        def request(sources: List[int]) -> Dict[str, Any]:
            mode = self._edge_mode(engine, edges, edges.out_targets, sources)
            return {"F": F, "M": M, "C": C, "sources": sources, "edge_mode": mode}

        # Route every temp ``(d, u, staged)`` to the master of ``d``.
        contributors: Dict[int, Set[int]] = {}
        fold_by_w: List[List[Temp]] = [[] for _ in range(self.nworkers)]
        temp_entries = 0
        for producer, reply in self._offload(
            engine, "sparse_map", self._by_owner(subset), request
        ):
            for temp in reply["temps"]:
                d = temp[0]
                contributors.setdefault(d, set()).add(producer)
                owner = owners[d]
                if producer != owner:
                    temp_entries += 1
                fold_by_w[owner].append(temp)

        updates: Dict[int, Dict[str, Any]] = {}
        for _w, reply in self._offload(
            engine, "sparse_fold", fold_by_w, lambda temps: {"R": R, "temps": temps}
        ):
            updates.update(reply["updates"])

        reduce_entries = sum(
            len({p for p in contributors[d] if p != owners[d]}) for d in updates
        )
        self.step_add("temp_entries", temp_entries)
        self.step_add("reduce_entries", reduce_entries)
        return sorted(contributors), updates, contributors

    # -- barrier commit distribution -------------------------------------
    def distribute_commits(
        self,
        ids: np.ndarray,
        updates: Dict[str, Any],
        changed: Dict[str, np.ndarray],
        broadcast_all: bool,
    ) -> None:
        """Ship one barrier's columnar commit as per-worker batches of
        ``(vid, {prop: value})`` entries: a changed vertex's owner gets
        every changed property, the other workers its synced ones —
        charged where the ``(|V|, P)`` necessary-mirror mask (or, under
        ``broadcast_all``, every partition) scopes the sync, riding along
        elsewhere to serve beyond-neighborhood reads."""
        fw = self.fw
        sco = fw.options.sync_critical_only
        nmo = fw.options.necessary_mirrors_only
        names = [name for name, mask in changed.items() if mask.any()]
        if not names:
            return
        synced = {n for n in names if not sco or n in fw._critical}
        staled = sorted(n for n in names if sco and n not in fw._critical)
        # The compile-mode communication plan: deltas of properties it
        # proved "neighbor"-scoped may be withheld from workers outside
        # the vertex's neighbor-mirror set (they hold a mirror no kernel
        # can read through a graph arc).  Only engaged when the plan is
        # active and the accounting options make the scope meaningful.
        plan = getattr(fw, "comm_plan", None)
        narrow: Set[str] = set()
        if plan is not None and plan.active and sco and nmo and not broadcast_all:
            narrow = {n for n in synced if plan.scope_of(n) == "neighbor"}

        # one row per changed vertex, with the payloads a worker may get
        # for it: the owner's, a mirror's, and a mirror's out of scope
        rows = np.flatnonzero(np.logical_or.reduce([changed[n] for n in names]))
        vids = ids[rows]
        values = {n: col if isinstance(col, list) else col.tolist()
                  for n, col in updates.items() if n in names}
        full = [{n: values[n][i] for n in names if changed[n][i]} for i in rows.tolist()]
        remote = [{n: v for n, v in props.items() if n in synced} for props in full]
        kept = [{n: v for n, v in props.items() if n not in narrow} for props in remote]
        has_remote = np.array([bool(props) for props in remote], dtype=bool)
        has_kept = np.array([bool(props) for props in kept], dtype=bool)
        withheld = np.array([len(r) - len(k) for r, k in zip(remote, kept)], dtype=np.int64)
        owners = self.owners[vids]
        if broadcast_all or not nmo:
            scope = np.ones((len(rows), self.nworkers), dtype=bool)
        else:
            scope = fw.partition._mirror_mask[vids]
        items = []
        for w in range(self.nworkers):
            own = owners == w
            in_scope = has_remote & ~own & scope[:, w]
            out_scope = has_remote & ~own & ~scope[:, w]
            entries = [
                (int(vids[k]), full[k] if own[k] else remote[k] if in_scope[k] else kept[k])
                for k in np.flatnonzero(own | in_scope | (out_scope & has_kept)).tolist()
            ]
            self.step_add("commit_entries", int(own.sum()))
            self.step_add("sync_entries", int(in_scope.sum()))
            self.step_add("extra_entries", int((out_scope & has_kept).sum()))
            self.step_add("withheld_entries", int((out_scope & ~has_kept).sum()))
            self.step_add("withheld_values", int(withheld[out_scope].sum()))
            for k in np.flatnonzero(out_scope & (withheld > 0)).tolist():
                fw.note_withheld(remote[k].keys() - kept[k].keys())
            if entries or staled:
                items.append((w, "commit", self.sid, (entries, staled)))
        self._request_many(items)


# ---------------------------------------------------------------------------
# Driver-side state + middleware
# ---------------------------------------------------------------------------
class NotifyingVertexState(VertexState):
    """The driver's authoritative vertex state, relaying property
    lifecycle operations to the workers so their column sets stay in
    lock-step (values stream separately through the barrier deltas)."""

    def __init__(self, num_vertices: int):
        super().__init__(num_vertices)
        self._session: Optional[DistSession] = None

    def attach_session(self, session: Optional[DistSession]) -> None:
        self._session = session

    def add_property(self, name, default=None, factory=None) -> None:
        super().add_property(name, default=default, factory=factory)
        s = self._session
        if s is None:
            return
        if factory is None:
            s.add_property(name, ("default", default))
            return
        try:
            pickle.dumps(factory)
        except Exception:
            # process-local callable: ship the materialized column instead
            s.add_property(name, ("column", self.column(name)))
        else:
            s.add_property(name, ("factory", factory))

    def remove_property(self, name: str) -> None:
        super().remove_property(name)
        if self._session is not None:
            self._session.remove_property(name)

    def reset_property(self, name: str) -> None:
        super().reset_property(name)
        if self._session is not None:
            self._session.ship_column(name, self.column(name))


class DistributedFlashware(Flashware):
    """Flashware whose barrier really moves data between processes.

    The simulated accounting is inherited untouched; this subclass adds
    the physical side: kernel offload sessions, commit distribution,
    critical-promotion bootstrap, and coordinated checkpoints."""

    def __init__(
        self,
        graph,
        num_workers: int = 4,
        options=None,
        partition_strategy: str = "hash",
    ):
        super().__init__(
            graph,
            num_workers,
            options=options,
            partition_strategy=partition_strategy,
        )
        self.session: Optional[DistSession] = None
        session = DistSession(get_pool(num_workers), self, partition_strategy)
        state = NotifyingVertexState(graph.num_vertices)
        self.state = state
        state.attach_session(session)
        self.session = session
        #: Communication-plan reconciliation state (the engine sets
        #: ``comm_plan`` on this flashware with its first kernel): properties whose mirror
        #: deltas have been withheld from out-of-scope workers, and the
        #: plan version those withholdings were sound against.
        self._withheld_props: Set[str] = set()
        self._plan_version_synced = 0

    # -- lifecycle -------------------------------------------------------
    def begin_superstep(self, kind, label="", frontier_in=0):
        rec = super().begin_superstep(kind, label, frontier_in=frontier_in)
        if self.session is not None:
            self.session.begin_step()
        return rec

    def _after_commit(self, ids, updates, changed, broadcast_all, rec) -> None:
        session = self.session
        if session is None:
            return
        try:
            session.distribute_commits(ids, updates, changed, broadcast_all)
        except BaseException:
            # A crash inside the physical barrier (e.g. a SIGKILLed
            # worker surfacing during commit distribution) must leave the
            # lifecycle clean: abort the in-flight record so recovery can
            # roll back and replay.
            self.abort_superstep()
            raise
        session.finish_step(rec)

    def _apply_process_faults(self, faults) -> None:
        session = self.session
        if session is None:  # pragma: no cover - session always set in mp runs
            super()._apply_process_faults(faults)
            return
        for worker, mode in faults:
            session.inject_fault(worker, mode)

    def heal_workers(self) -> Dict[str, Any]:
        """Heartbeat the pool and respawn every dead worker, rebuilding
        their graph views and session state; returns the respawn report
        the recovery layer charges (``respawned``/``wall_s``/``bytes``/
        ``values``/``columns``)."""
        session = self.session
        if session is None:
            return {"respawned": [], "wall_s": 0.0, "bytes": 0, "values": 0,
                    "columns": 0}
        return session.pool.supervisor.heal(self.tracer)

    def mark_critical(self, names: Iterable[str]) -> None:
        names = list(names)
        fresh = [
            n for n in names
            if n not in self._critical and self.state.has_property(n)
        ]
        # super() pops the debt masks it pays; keep them for the real side
        debts = {n: self._unsynced.get(n) for n in fresh}
        super().mark_critical(names)
        session = self.session
        if session is None:
            return
        for name in fresh:
            # Bootstrap: ship the current full column so every worker's
            # copy is fresh from the promotion point on (uncharged — the
            # simulated model pays only the per-vertex debt below).
            session.ship_column(name, self.state.column(name))
            if (
                debts[name] is not None
                and self.options.sync_critical_only
                and self._current is not None
            ):
                # Real counterpart of the charged promotion debt.
                counts = self.partition.neighbor_mirror_counts()
                session.step_add("sync_entries", int(counts[debts[name]].sum()))
        if fresh:
            session.mark_critical(fresh)

    # -- communication plan --------------------------------------------
    def note_withheld(self, names: Iterable[str]) -> None:
        """Record that deltas of ``names`` were withheld from some
        workers — their stale copies must be repaired if the plan ever
        widens those properties."""
        self._withheld_props.update(names)

    def sync_comm_plan(self) -> None:
        """Reconcile withheld columns against the current plan.  Called
        by the analysis dispatcher *before* each kernel executes: if the
        plan widened (or deactivated) since the last reconcile, any
        previously-withheld property that is no longer neighbor-scoped is
        re-shipped in full, so no kernel ever reads a stale mirror."""
        plan = getattr(self, "comm_plan", None)
        session = self.session
        if plan is None or session is None:
            return
        if plan.version == self._plan_version_synced:
            return
        for name in sorted(self._withheld_props):
            if plan.scope_of(name) == "neighbor":
                continue
            if self.state.has_property(name):
                session.reship_column(name, self.state.column(name))
            self._withheld_props.discard(name)
        self._plan_version_synced = plan.version

    # -- checkpoint / recovery ------------------------------------------
    def checkpoint(self):
        snap = super().checkpoint()
        if self.session is not None:
            self.session.snapshot(snap["superstep"])
        return snap

    def restore(self, snapshot) -> None:
        super().restore(snapshot)
        session = self.session
        if session is None:
            return
        properties = list(self.state.property_names)
        missing = session.restore(snapshot["superstep"], properties)
        for name in sorted(missing):
            session.ship_column(name, self.state.column(name))
        if self._critical:
            session.mark_critical(sorted(self._critical))

    def reset_for_recovery(self) -> None:
        session = self.session
        super().reset_for_recovery()
        state = self.state
        if isinstance(state, NotifyingVertexState):
            state.attach_session(session)
        if session is not None:
            session.reset()

    def dist_summary(self) -> Dict[str, Any]:
        """Real-traffic totals of this engine's session."""
        if self.session is None:
            return {}
        return self.session.summary()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
