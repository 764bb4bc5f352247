"""Worker-process side of the multi-process executor.

Each worker holds:

* the **shared graph** — mapped from the parent's shared-memory segment
  (or unpickled on platforms without shared memory);
* a **full-width columnar vertex state**
  (:class:`~repro.runtime.state.VertexState`, as on the driver): the worker
  is authoritative for the vertices it masters plus every *critical*
  property of every vertex (kept fresh by the mirror-sync deltas); other
  entries may be stale, which :class:`GuardedState` turns into a loud
  :class:`~repro.errors.StaleReadError` instead of a silent wrong answer;
* an **engine proxy** exposing exactly the surface kernels touch
  (``.graph``, ``.flashware.state`` / ``.charge_ops``, ``._owner``,
  ``.get``, ``.charge``) so the unmodified interpreter and
  :class:`~repro.core.vertex.VertexView`/``WorkingView`` machinery work
  against worker-local state.

The protocol is strict request/reply over one duplex pipe: the parent
sends ``(op, session_id, payload)``; the worker replies ``("ok", result)``
or ``("err", type_name, pickled_exc_or_None, traceback_text)``.  A kernel
request runs :mod:`repro.core.interp` — the loops the inline engine
runs — over this worker's share of the vertices, so charge order,
early exits and results are the single-process run's by construction.
"""

from __future__ import annotations

import time
import traceback
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import interp
from repro.core.edgeset import BaseEdges, EdgeSet
from repro.core.vertex import VertexView
from repro.errors import StaleReadError
from repro.graph.partition import partition_owners
from repro.runtime.distributed import shipping
from repro.runtime.state import VertexState


class GuardedState:
    """Read/write facade over the worker's column store that raises
    :class:`StaleReadError` on reads that may observe a stale mirror.

    An entry ``(vid, name)`` is definitely fresh when the worker masters
    ``vid``, or the property is critical (mirror-synced every barrier),
    or the property has never changed since its last full-column ship.
    Everything else is stale *only if* the parent flagged the property as
    carrying unsynced changes (``sync_critical_only`` mode)."""

    __slots__ = ("_state", "_session")

    def __init__(self, state: VertexState, session: "WorkerSession"):
        self._state = state
        self._session = session

    # -- the VertexState surface kernels use ---------------------------
    def get(self, vid: int, name: str) -> Any:
        s = self._session
        if (
            name in s.staled
            and name not in s.critical
            and s.owner[vid] != s.rank
        ):
            raise StaleReadError(
                f"worker {s.rank} read non-critical property {name!r} of "
                f"remote vertex {vid}, whose mirror copy may be stale "
                f"(changes to {name!r} were committed without mirror sync). "
                f"The static pass marks such a property critical ahead of time "
                f"wherever it can analyse the kernel; this read escaped it, so "
                f"mark {name!r} critical (engine.flashware.mark_critical)."
            )
        return self._state.get(vid, name)

    def set(self, vid: int, name: str, value: Any) -> None:
        self._state.set(vid, name, value)

    def has_property(self, name: str) -> bool:
        return self._state.has_property(name)

    def row(self, vid: int) -> Dict[str, Any]:
        return {name: self.get(vid, name) for name in self._state.property_names}

    @property
    def property_names(self) -> List[str]:
        return self._state.property_names

    def column(self, name: str) -> Any:
        return self._state.column(name)


class _ProxyFlashware:
    """The ``engine.flashware`` surface views and the interpreter touch."""

    __slots__ = ("state", "ops")

    def __init__(self, state: GuardedState, nworkers: int):
        self.state = state
        #: Per-owner op counts of the current kernel request (length
        #: ``nworkers``: user functions may ``engine.charge`` any vertex).
        self.ops: List[int] = [0] * nworkers

    def charge_ops(self, worker: int, n: int = 1) -> None:
        self.ops[worker] += n


class WorkerProxy:
    """Worker-local stand-in for the driver's FlashEngine: the object
    shipped kernel closures see wherever they captured the engine."""

    def __init__(self, session: "WorkerSession"):
        self.graph = session.graph
        self.flashware = _ProxyFlashware(session.guarded, session.nworkers)
        self.num_workers = session.nworkers
        self._owner = session.owner.__getitem__

    def get(self, vid: int):
        return VertexView(self, int(vid))

    def value(self, vid: int, name: str) -> Any:
        return self.flashware.state.get(vid, name)

    def values(self, name: str) -> List[Any]:
        column = self.flashware.state.column(name)
        if isinstance(column, np.ndarray):
            return column.tolist()
        return list(column)

    def charge(self, vid: int, ops: int) -> None:
        self.flashware.charge_ops(self._owner(vid), ops)


class WorkerSession:
    """One engine's worth of worker-local state (a pool multiplexes
    several engines over the same worker processes)."""

    def __init__(
        self,
        rank: int,
        nworkers: int,
        graph,
        shm,
        partition_strategy: str,
        sync_critical_only: bool,
    ):
        self.rank = rank
        self.nworkers = nworkers
        self.graph = graph
        self.shm = shm  # keep the segment alive while the graph lives
        #: Owner rank per vertex, a plain list: the kernels index it per
        #: vertex and :class:`GuardedState` per remote read.
        self.owner: List[int] = partition_owners(
            graph, nworkers, partition_strategy
        ).tolist()
        self.sync_critical_only = sync_critical_only
        self.state = VertexState(graph.num_vertices)
        self.guarded = GuardedState(self.state, self)
        self.proxy = WorkerProxy(self)
        #: Properties critical on the driver (mirror-synced every barrier).
        self.critical: Set[str] = set()
        #: Properties with driver-side changes this worker never received.
        self.staled: Set[str] = set()
        #: Coordinated snapshots of the owned state, keyed by superstep.
        self.snapshots: Dict[int, Dict[str, Any]] = {}

    # -- property lifecycle (requests from the driver) ------------------
    def add_property(self, name: str, spec: Tuple[str, Any]) -> None:
        kind, value = spec
        if kind == "default":
            self.state.add_property(name, default=value)
        elif kind == "factory":
            self.state.add_property(name, factory=value)
        else:  # ("column", materialized full column)
            self.set_column(name, value)
        self.staled.discard(name)

    def remove_property(self, name: str) -> None:
        self.state.remove_property(name)
        self.critical.discard(name)
        self.staled.discard(name)

    def set_column(self, name: str, column: Any) -> None:
        """Install a full authoritative column (reset, critical-promotion
        bootstrap, restore fill-in) in the driver's representation — an
        array or a list — and clear any staleness."""
        if not self.state.has_property(name):
            self.state.add_property(name)
        self.state.install_column(
            name, column.copy() if isinstance(column, np.ndarray) else list(column)
        )
        self.staled.discard(name)

    def mark_critical(self, names: List[str]) -> None:
        self.critical.update(names)
        for name in names:
            self.staled.discard(name)

    def commit(
        self,
        batch: Dict[str, Tuple[List[int], Any]],
        staled_props: List[str],
    ) -> None:
        """Apply one barrier's delta batch: ``batch`` maps each property
        to the ``(ids, values)`` slice of fresh values this worker is
        entitled to; ``staled_props`` lists the properties that changed
        somewhere without reaching this worker."""
        state = self.state
        for name, (ids, values) in batch.items():
            column = state.column(name)
            if (
                isinstance(column, np.ndarray)
                and isinstance(values, np.ndarray)
                and values.dtype == column.dtype
            ):
                column[ids] = values
                continue
            # value by value: the column may demote, as on the driver
            if isinstance(values, np.ndarray):
                values = values.tolist()
            for vid, value in zip(ids, values):
                state.set(vid, name, value)
        if self.sync_critical_only:
            for name in staled_props:
                if name not in self.critical:
                    self.staled.add(name)

    # -- checkpoint / recovery -------------------------------------------
    def snapshot(self, tag: int) -> None:
        """Stash a copy of the owned entries of every property (the
        worker-side half of a coordinated checkpoint)."""
        from repro.runtime.flashware import Flashware

        self.snapshots[tag] = {
            "columns": {
                name: Flashware._copy_column(self.state.column(name))
                for name in self.state.property_names
            },
            "properties": list(self.state.property_names),
            "staled": set(self.staled),
            "critical": set(self.critical),
        }

    def restore(self, tag: int, properties: List[str]) -> List[str]:
        """Roll back to the stashed snapshot ``tag``; returns property
        names in the checkpoint the stash cannot cover (declared after
        the stash was dropped, or restored from a foreign store) — the
        driver pushes those as full columns."""
        snap = self.snapshots.get(tag)
        missing: List[str] = []
        for name in list(self.state.property_names):
            if name not in properties:
                self.state.remove_property(name)
                self.critical.discard(name)
                self.staled.discard(name)
        for name in properties:
            if snap is not None and name in snap["columns"]:
                from repro.runtime.flashware import Flashware

                if not self.state.has_property(name):
                    self.state.add_property(name)
                self.state.install_column(
                    name, Flashware._copy_column(snap["columns"][name])
                )
            elif self.state.has_property(name):
                missing.append(name)
            else:
                self.state.add_property(name)
                missing.append(name)
        if snap is not None:
            self.staled = set(snap["staled"])
            self.critical = set(snap["critical"])
        return missing

    def reset(self) -> None:
        """Fresh logical run (recovery re-execution): new empty state,
        cleared analysis sets.  Snapshots are *kept* — the replay restores
        from them."""
        self.state = VertexState(self.graph.num_vertices)
        self.guarded = GuardedState(self.state, self)
        self.proxy = WorkerProxy(self)
        self.critical = set()
        self.staled = set()

    def close(self) -> None:
        """Drop the guarded view and the proxy: the guarded view points
        back at the session, and the cycle would leave every closed
        session to the cyclic garbage collector."""
        self.guarded = self.proxy = None


# ---------------------------------------------------------------------------
# Kernel execution: core/interp.py over this worker's partition
# ---------------------------------------------------------------------------
class _ShippedEdges(EdgeSet):
    """A constructed edge set as the driver materialized it for this
    worker: ``{vertex: neighbours}`` in the direction the kernel walks."""

    def __init__(self, adjacency: Dict[int, List[int]]):
        self._adjacency = adjacency

    def out_targets(self, engine, s: int) -> Sequence[int]:
        return self._adjacency.get(s, ())

    in_sources = out_targets


def _edges(edge_mode: Tuple[Any, ...]) -> EdgeSet:
    return BaseEdges() if edge_mode[0] == "csr" else _ShippedEdges(edge_mode[1])


def _run_vertex_map(proxy: WorkerProxy, req: Dict[str, Any]) -> Dict[str, Any]:
    out, updates = interp.run_vertex_map(proxy, req["vids"], req["F"], req["M"])
    return {"out": out, "updates": updates}


def _run_dense(proxy: WorkerProxy, req: Dict[str, Any]) -> Dict[str, Any]:
    out, updates = interp.run_edge_map_dense(
        proxy, set(req["subset"]), _edges(req["edge_mode"]),
        req["F"], req["M"], req["C"], req["targets"],
    )
    return {"out": out, "updates": updates}


def _run_sparse_map(proxy: WorkerProxy, req: Dict[str, Any]) -> Dict[str, Any]:
    """Phase A of the push kernel over the active sources mastered here."""
    temps = interp.sparse_map(
        proxy, req["sources"], _edges(req["edge_mode"]), req["F"], req["M"], req["C"]
    )
    return {"temps": temps}


def _run_sparse_fold(proxy: WorkerProxy, req: Dict[str, Any]) -> Dict[str, Any]:
    """Phase B over the temps routed to the targets mastered here.  They
    arrive producer by producer; a source's temps all come from its one
    master in arc order, so a stable sort by source restores the
    single-process fold order."""
    req["temps"].sort(key=itemgetter(1))
    return {"updates": interp.sparse_fold(proxy, req["temps"], req["R"])}


_KERNELS = {
    "vertex_map": _run_vertex_map,
    "dense": _run_dense,
    "sparse_map": _run_sparse_map,
    "sparse_fold": _run_sparse_fold,
}


def _run_kernel(
    session: WorkerSession, op: str, payload: Tuple[bytes, Dict[str, Any]]
) -> Dict[str, Any]:
    """One kernel request — the shipped user functions plus the plain
    request data: fresh op counts, the interpreter, and the reply
    stamped with the counts and the CPU seconds (not wall: that excludes
    time sliced out to other workers, so the driver can reconstruct the
    parallel critical path even on core-starved hosts)."""
    cpu0 = time.process_time()
    proxy = session.proxy
    ops = proxy.flashware.ops = [0] * session.nworkers
    fns, req = payload
    req.update(shipping.load_payload(fns, session))
    result = _KERNELS[op](proxy, req)
    result["ops"] = ops
    result["cpu_s"] = time.process_time() - cpu0
    return result


#: Session requests served by the :class:`WorkerSession` method of the
#: same name, called with the payload tuple as its arguments.
_SESSION_OPS = (
    "commit", "add_property", "remove_property", "set_column",
    "mark_critical", "snapshot", "restore", "reset",
)


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------
def worker_main(rank: int, conn) -> None:
    """Entry point of a worker process: serve requests until ``stop``.

    The wire format is length-prefixed pickle both ways (the driver
    serializes/deserializes explicitly so it can count bytes)."""
    import pickle

    # Chaos state (driven by the fire-and-forget "chaos" op): a reply
    # delay in seconds simulating a slow pipe.
    delay_box = [0.0]

    def reply(msg: Tuple) -> None:
        if delay_box[0] > 0.0:
            time.sleep(delay_box[0])
        conn.send_bytes(pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))

    sessions: Dict[int, WorkerSession] = {}
    graphs: Dict[int, Tuple[Any, Any]] = {}  # token -> (graph, shm)
    while True:
        try:
            op, sid, payload = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break
        if op == "chaos":
            # Fire-and-forget fault injection: never replied to, so the
            # driver's request/reply bookkeeping is untouched.
            kind, value = payload
            if kind == "hang":
                while True:
                    time.sleep(3600)
            elif kind == "slow":
                delay_box[0] = float(value)
            continue
        try:
            if op == "stop":
                reply(("ok", None))
                break
            elif op == "ping":
                result = rank
            elif op == "put_graph":
                token, meta = payload
                if token not in graphs:
                    graphs[token] = shipping.import_graph(meta)
                result = None
            elif op == "drop_graph":
                entry = graphs.pop(payload, None)
                if entry is not None and entry[1] is not None:
                    entry[1].close()
                result = None
            elif op == "open":
                token = payload["graph_token"]
                graph, shm = graphs[token]
                sessions[sid] = WorkerSession(
                    rank,
                    payload["nworkers"],
                    graph,
                    shm,
                    payload["partition_strategy"],
                    payload["sync_critical_only"],
                )
                result = None
            elif op == "close":
                if sid in sessions:
                    sessions.pop(sid).close()
                result = None
            elif op in _KERNELS:
                result = _run_kernel(sessions[sid], op, payload)
            elif op in _SESSION_OPS:
                result = getattr(sessions[sid], op)(*payload)
            else:
                raise ValueError(f"unknown worker op {op!r}")
            reply(("ok", result))
        except BaseException as exc:  # noqa: BLE001 - relayed to the driver
            tb = traceback.format_exc()
            try:
                blob: Optional[bytes] = pickle.dumps(exc)
            except Exception:
                blob = None
            try:
                reply(("err", type(exc).__name__, blob, tb))
            except Exception:
                break
