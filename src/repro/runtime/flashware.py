"""FLASHWARE — the middleware between the FLASH primitives and the
(simulated) distributed runtime (paper §IV-A).

Responsibilities reproduced here:

* **current/next state separation** — user functions read the consistent
  current snapshot; writes are staged and committed at ``barrier()`` —
  one columnar commit (sorted ids, one column per property) that every
  kernel, interpreted or columnar, inline or mp, ends its superstep with;
* **master/mirror synchronization accounting** — each committed change to
  a master is charged as messages to its mirrors (the master→mirror
  *sync* round), and each remote contribution in push mode is charged as
  a mirror→master *reduce* round (two rounds total, as §IV-A describes
  for EDGEMAPSPARSE);
* **critical-property-only sync** (§IV-C + Table II) — only properties
  marked *critical* by the code-generator analysis are broadcast to
  mirrors;
* **necessary-mirror-only communication** (§IV-C) — syncs go only to
  partitions holding a neighbor, unless the superstep used virtual edges
  (then the master must broadcast to all partitions).

Because the whole cluster is simulated in-process, property storage is
physically global; distribution is *accounted*, which is all the paper's
measurements observe (see DESIGN.md §5).  The multi-process executor
receives each barrier's columnar commit through :meth:`Flashware._after_commit`
and turns it into real delta batches.
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from repro.errors import FlashUsageError
from repro.graph.graph import Graph
from repro.graph.partition import PartitionMap, partition_graph
from repro.runtime.faults import FaultInjector, WorkerFailure
from repro.runtime.metrics import Metrics, SuperstepRecord
from repro.runtime.state import VertexState
from repro.runtime.tracing import NULL_TRACER, SpanHandle

#: Superstep kind -> trace span name (the span taxonomy of
#: ``docs/observability.md``).
_SPAN_NAMES = {
    "vertex_map": "vertexmap",
    "edge_map_dense": "edgemap.pull",
    "edge_map_sparse": "edgemap.push",
    "collect": "collect",
}

#: Held by an object update column at the vertices that did not stage
#: that property (a vertex may stage only some of a superstep's writes).
UNSTAGED: Any = object()


def values_equal(a: Any, b: Any) -> bool:
    """Value equality that tolerates un-comparable objects (treated as
    changed).  NaN compares equal to NaN: a float property holding NaN
    has *not* changed when the new value is NaN again, so the barrier
    must not re-count it as changed (and re-sync it to mirrors) forever.
    """
    if a is b:
        return True
    try:
        if bool(a == b):
            return True
    except Exception:
        return False
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return math.isnan(a) and math.isnan(b)
    return False


def payload_size(value: Any) -> int:
    """Network payload of one property value, in scalar units.
    Collection-valued properties (neighbor lists, histograms) ship their
    whole contents — the dominant traffic of TC/RC/CL-style programs."""
    if isinstance(value, (set, frozenset, list, tuple, dict)):
        return max(len(value), 1)
    return 1


#: The one Python type an array column of each dtype kind stores as is.
_EXACT_TYPES = {"f": float, "i": int, "b": bool}


def _typed_column(values: list, dtype: np.dtype) -> Any:
    """``values`` as an array of ``dtype`` when every value is exactly
    the Python type the column stores (``float``, ``int`` in the int64
    range, ``bool``), else the list unchanged: unstaged entries, objects
    and writes that demote the column stay on the value-by-value path."""
    if set(map(type, values)) != {_EXACT_TYPES.get(dtype.kind)}:
        return values
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:  # an int beyond int64
        return values


@dataclass(frozen=True)
class FlashwareOptions:
    """Runtime-optimization switches (§IV-C).  Both default to on, as in
    the paper; benchmarks toggle them for the ablation study."""

    sync_critical_only: bool = True
    necessary_mirrors_only: bool = True


class Flashware:
    """The middleware instance backing one FLASH (or baseline) program."""

    def __init__(
        self,
        graph: Graph,
        num_workers: int = 4,
        options: Optional[FlashwareOptions] = None,
        partition_strategy: str = "hash",
        partition: Optional[PartitionMap] = None,
    ):
        self.graph = graph
        self.options = options or FlashwareOptions()
        if partition is not None:
            if partition.graph is not graph:
                raise ValueError("partition map belongs to a different graph")
            self.partition = partition
        else:
            self.partition = partition_graph(graph, num_workers, partition_strategy)
        self.metrics = Metrics(self.partition.num_partitions)
        self.state = VertexState(graph.num_vertices)
        self._critical: Set[str] = set()
        self._current: Optional[SuperstepRecord] = None
        self._ops_suppressed = False
        #: Structured tracing (see :mod:`repro.runtime.tracing`).  The
        #: engine installs its configured tracer; the default is the
        #: no-op NULL_TRACER, keeping the untraced path free.
        self.tracer = NULL_TRACER
        self._span: Optional[SpanHandle] = None
        # Per (so far) non-critical property, a |V| mask of the vertices
        # whose value changed without being synced — the debt paid if the
        # property is later promoted to critical.
        self._unsynced: Dict[str, np.ndarray] = {}
        # ---- fault tolerance (see repro.runtime.recovery) ----
        # Logical superstep counter: the number of *committed* supersteps
        # of the current execution attempt (aborted supersteps do not
        # advance it, so a replay re-executes the same sequence numbers).
        self.superstep_seq = 0
        #: Injector polled at the begin/barrier points of every executed
        #: superstep; ``None`` disables injection.
        self.fault_injector: Optional[FaultInjector] = None
        #: Called with ``(flashware, record)`` after every committed
        #: barrier — the recovery manager's checkpoint/restore hook.
        self.on_commit: Optional[Callable[["Flashware", SuperstepRecord], None]] = None
        # During a recovery re-execution, supersteps with seq below
        # ``_ff_until`` are fast-forwarded (executed, but uncharged: in a
        # real run their effects would be loaded from the checkpoint) and
        # supersteps in ``[_ff_until, _replay_until)`` are charged as
        # *replayed* work.
        self._ff_until = 0
        self._replay_until = 0

    # ------------------------------------------------------------------
    # Paper API: get / put / barrier  (put+barrier are orchestrated by the
    # engine through begin_superstep/commit, which subsume them)
    # ------------------------------------------------------------------
    def get(self, vid: int) -> Dict[str, Any]:
        """Read the consistent current states of any vertex (master or
        mirror) — safe from every worker, no message charged (§IV-A)."""
        return self.state.row(vid)

    # ------------------------------------------------------------------
    # Superstep lifecycle
    # ------------------------------------------------------------------
    @property
    def in_fast_forward(self) -> bool:
        """Whether the current/next superstep is a fast-forwarded replay
        step (recovery re-execution of work already covered by a
        checkpoint — runs, but is not charged)."""
        return self.superstep_seq < self._ff_until

    def set_replay_window(self, ff_until: int, replay_until: int) -> None:
        """Configure the recovery replay window for the current attempt:
        supersteps below ``ff_until`` fast-forward uncharged, supersteps
        in ``[ff_until, replay_until)`` are charged as replayed work."""
        self._ff_until = ff_until
        self._replay_until = max(replay_until, ff_until)
        self.metrics.set_suppressed(self.in_fast_forward)

    def begin_superstep(self, kind: str, label: str = "", frontier_in: int = 0) -> SuperstepRecord:
        if self._current is not None:
            raise RuntimeError("previous superstep not closed with barrier()")
        self.metrics.set_suppressed(self.in_fast_forward)
        rec = self.metrics.new_record(kind, label)
        rec.frontier_in = frontier_in
        if not self.in_fast_forward and self.superstep_seq < self._replay_until:
            rec.replayed = True
        self._current = rec
        if self.tracer.enabled:
            self._span = self.tracer.start(
                _SPAN_NAMES.get(kind, kind),
                "superstep",
                seq=self.superstep_seq,
                kind=kind,
                label=label,
                frontier_in=frontier_in,
            )
            if self.in_fast_forward:
                self._span.annotate(fast_forward=True)
        self._poll_faults("begin")
        return rec

    def annotate_span(self, **args: Any) -> None:
        """Attach attribution (primitive, mode, backend, user-function
        names) to the current superstep's trace span; no-op untraced."""
        if self._span is not None:
            self._span.annotate(**args)

    def _end_superstep_span(self, rec: SuperstepRecord) -> None:
        span = self._span
        if span is None:
            return
        self._span = None
        args: Dict[str, Any] = {
            "index": rec.index,
            "ops": rec.total_ops,
            "max_worker_ops": rec.max_worker_ops,
            "reduce_messages": rec.reduce_messages,
            "reduce_values": rec.reduce_values,
            "sync_messages": rec.sync_messages,
            "sync_values": rec.sync_values,
            "frontier_out": rec.frontier_out,
        }
        if rec.replayed:
            args["replayed"] = True
        if rec.aborted:
            args["aborted"] = True
        span.end(**args)

    def _poll_faults(self, phase: str) -> None:
        """Give the fault injector a chance to kill a worker.  A
        simulated failure aborts the in-flight superstep (nothing
        committed, BSP all-or-nothing) and propagates as
        :class:`WorkerFailure`; process-level faults (kill/hang/slow) are
        inflicted on the real worker processes and surface later through
        the pool's crash detection."""
        injector = self.fault_injector
        if injector is None or self.in_fast_forward:
            return
        procs = injector.poll_process(
            self.superstep_seq, phase, self.partition.num_partitions
        )
        if procs:
            self._apply_process_faults(procs)
        try:
            injector.poll(self.superstep_seq, phase, self.partition.num_partitions)
        except WorkerFailure:
            self.abort_superstep()
            raise

    def _apply_process_faults(self, faults) -> None:
        """Inflict process-level chaos faults; only the distributed
        FLASHWARE has real worker processes to hurt."""
        raise FlashUsageError(
            "process-level faults (kill/hang/slow) need real worker "
            "processes; run with executor='mp'"
        )

    def _finish_commit(self, rec: SuperstepRecord) -> None:
        """Close a committed superstep: advance the logical clock and run
        the recovery manager's checkpoint/restore hook."""
        self._current = None
        self._end_superstep_span(rec)
        self.superstep_seq += 1
        self.metrics.set_suppressed(self.in_fast_forward)
        if self.on_commit is not None:
            self.on_commit(self, rec)

    def charge_ops(self, worker: int, n: int = 1) -> None:
        """Charge ``n`` user-function evaluations to ``worker``."""
        if self._ops_suppressed:
            return
        self._current.worker_ops[worker] += n

    @contextmanager
    def suppressed_ops(self) -> Iterator[None]:
        """Discard :meth:`charge_ops` inside the block.  Used while the
        analysis tracer runs user functions against recording views:
        analysis is not user work, and any ``engine.charge`` calls the
        functions make during a trace must not skew the ops metrics
        (the static pass runs no user code at all, and the two modes
        must account identically)."""
        prev = self._ops_suppressed
        self._ops_suppressed = True
        try:
            yield
        finally:
            self._ops_suppressed = prev

    def barrier(
        self,
        ids: Any = (),
        updates: Optional[Dict[str, Any]] = None,
        reduce_pairs: Optional[Tuple[Any, Any]] = None,
        broadcast_all: bool = False,
        frontier_out: int = 0,
    ) -> None:
        """Commit staged updates, ending the current superstep.

        Parameters
        ----------
        ids:
            Sorted array of vertex ids with staged updates.
        updates:
            Final next-state values (already reduced in push mode) as
            ``{prop: column}``, each column parallel to ``ids`` — a NumPy
            array of scalars, or a list of Python values that may hold
            :data:`UNSTAGED` where a vertex staged other properties only.
            A list whose values are all exactly the Python type of its
            property's array is committed as an array; otherwise a value
            that does not fit the array demotes the column
            (:meth:`VertexState.set`).
        reduce_pairs:
            For push mode, the distinct ``(target, contributing
            partition)`` pairs as two parallel arrays.  Each remote pair
            whose target staged something is charged as one message of
            the mirror→master reduce round (mirror-side pre-aggregation)
            carrying that target's staged payload.
        broadcast_all:
            True when the superstep used virtual edges outside ``E`` —
            the master must then sync to mirrors in *all* partitions
            (§IV-C last paragraph).
        frontier_out:
            Size of the resulting vertex subset (metrics only).
        """
        rec = self._current
        if rec is None:
            raise RuntimeError("barrier() called outside a superstep")
        self._poll_faults("barrier")
        sync_span = (
            self.tracer.start("barrier.sync", "barrier", seq=self.superstep_seq)
            if self.tracer.enabled
            else None
        )
        ids = np.asarray(ids, dtype=np.int64)
        updates = dict(updates or {})
        n_ids = len(ids)
        state = self.state
        part = self.partition

        # ---- pass 1: changed masks and payload sizes
        changed: Dict[str, np.ndarray] = {}
        payloads: Dict[str, Optional[np.ndarray]] = {}
        for name, new in updates.items():
            col = state.column(name)
            if isinstance(col, np.ndarray) and isinstance(new, list):
                new = updates[name] = _typed_column(new, col.dtype)
            if (
                isinstance(col, np.ndarray)
                and isinstance(new, np.ndarray)
                and np.can_cast(new.dtype, col.dtype, casting="same_kind")
            ):
                cur = col[ids]
                mask = cur != new
                if col.dtype.kind == "f" and new.dtype.kind == "f":
                    # NaN != NaN, but an unchanged NaN is not a change
                    # (values_equal's rule)
                    mask &= ~(np.isnan(cur) & np.isnan(new))
                payloads[name] = None  # scalar payload == 1
            else:
                # value by value: objects, unstaged entries and writes
                # that may not fit the column's dtype
                if isinstance(new, np.ndarray):
                    new = updates[name] = new.tolist()
                mask = np.zeros(n_ids, dtype=bool)
                pay = np.zeros(n_ids, dtype=np.int64)
                for i, (vid, value) in enumerate(zip(ids.tolist(), new)):
                    if value is UNSTAGED:
                        continue
                    pay[i] = payload_size(value)
                    mask[i] = not values_equal(state.get(vid, name), value)
                payloads[name] = pay
            changed[name] = mask

        # ---- reduce round (push mode): charged for every staged target
        # with remote contributors, changed or not
        if reduce_pairs is not None and n_ids:
            ptgt = np.asarray(reduce_pairs[0], dtype=np.int64)
            ppart = np.asarray(reduce_pairs[1], dtype=np.int64)
            rtgt = ptgt[ppart != part.owners()[ptgt]]
            pos = np.searchsorted(ids, rtgt)
            pos = pos[ids[np.minimum(pos, n_ids - 1)] == rtgt]
            if len(pos):
                rec.reduce_messages += int(len(pos))
                size = np.zeros(n_ids, dtype=np.int64)
                for pay in payloads.values():
                    size += pay if pay is not None else 1
                np.maximum(size, 1, out=size)
                rec.reduce_values += int(size[pos].sum())

        # ---- commit + sync round
        if broadcast_all or not self.options.necessary_mirrors_only:
            mirror_counts = np.full(
                self.graph.num_vertices, part.num_partitions - 1, dtype=np.int64
            )
        else:
            mirror_counts = part.neighbor_mirror_counts()

        any_synced = np.zeros(n_ids, dtype=bool)
        sync_values = 0
        for name, new in updates.items():
            mask = changed[name]
            if not mask.any():
                continue
            changed_ids = ids[mask]
            if isinstance(new, np.ndarray):
                state.column(name)[changed_ids] = new[mask]
            else:
                for i in np.flatnonzero(mask).tolist():
                    state.set(int(ids[i]), name, new[i])
            if not self.options.sync_critical_only or name in self._critical:
                any_synced |= mask
                counts = mirror_counts[changed_ids]
                pay = payloads[name]
                if pay is None:
                    sync_values += int(counts.sum())
                else:
                    sync_values += int((counts * pay[mask]).sum())
            else:
                self._record_debt(name, changed_ids)
        if any_synced.any():
            rec.sync_messages += int(mirror_counts[ids[any_synced]].sum())
            rec.sync_values += sync_values

        rec.frontier_out = frontier_out
        if sync_span is not None:
            sync_span.end(
                changed=int(sum(m.sum() for m in changed.values())),
                sync_messages=rec.sync_messages,
                sync_values=rec.sync_values,
                reduce_messages=rec.reduce_messages,
                reduce_values=rec.reduce_values,
            )
        self._after_commit(ids, updates, changed, broadcast_all, rec)
        self._finish_commit(rec)

    #: ``perf/workloads.py`` times ``barrier`` and ``barrier_columnar`` by
    #: name, so the old columnar entry point stays as an alias.
    barrier_columnar = barrier

    def _record_debt(self, name: str, vids: Any) -> None:
        """Note that non-critical ``name`` changed at ``vids`` unsynced."""
        mask = self._unsynced.get(name)
        if mask is None:
            mask = self._unsynced[name] = np.zeros(self.graph.num_vertices, dtype=bool)
        mask[vids] = True

    def _after_commit(
        self,
        ids: np.ndarray,
        updates: Dict[str, Any],
        changed: Dict[str, np.ndarray],
        broadcast_all: bool,
        rec: SuperstepRecord,
    ) -> None:
        """Hook called with each barrier's columnar commit — ``changed``
        masks which of ``ids`` changed per ``updates`` column — just
        before the superstep is finalized.  The distributed executor
        overrides it to ship the committed deltas to the worker
        processes; the base (simulated) runtime has nothing to do."""

    def abort_superstep(self) -> None:
        """Close the current superstep without committing — used when a
        kernel raises or a worker fails mid-superstep.  The aborted
        record stays in the log (the work up to the failure was really
        spent) but is flagged so the cost model attributes it to
        recovery, and the logical superstep clock does not advance."""
        rec = self._current
        if rec is not None:
            rec.aborted = True
        self._current = None
        if rec is not None:
            self._end_superstep_span(rec)
        else:
            self._span = None

    # ------------------------------------------------------------------
    # Critical-property analysis hooks (paper Table II)
    # ------------------------------------------------------------------
    @property
    def critical_properties(self) -> Set[str]:
        return set(self._critical)

    def is_critical(self, name: str) -> bool:
        return name in self._critical

    def mark_critical(self, names: Iterable[str]) -> None:
        """Mark properties critical (they will be broadcast to mirrors).

        When a property is *promoted* to critical after earlier supersteps
        already changed it without syncing, the sync debt is paid now: one
        catch-up broadcast per changed-but-unsynced vertex.  This charges
        exactly what the paper's ahead-of-time code generator would have
        paid by syncing those same changes as they happened.
        """
        for name in names:
            if name in self._critical:
                continue
            if not self.state.has_property(name):
                raise KeyError(f"unknown property {name!r}")
            self._critical.add(name)
            debt = self._unsynced.pop(name, None)
            if (
                debt is not None
                and self.options.sync_critical_only
                and self._current is not None
            ):
                rec = self._current
                vids = np.flatnonzero(debt)
                counts = self.partition.neighbor_mirror_counts()[vids]
                messages = int(counts.sum())
                rec.sync_messages += messages
                column = self.state.column(name)
                if isinstance(column, np.ndarray):
                    rec.sync_values += messages  # scalar payload == 1
                else:
                    mirrored = counts > 0
                    rec.sync_values += sum(
                        count * payload_size(column[vid])
                        for vid, count in zip(
                            vids[mirrored].tolist(), counts[mirrored].tolist()
                        )
                    )

    # ------------------------------------------------------------------
    # Checkpoint / restore (failure recovery)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the committed vertex state (plus the critical set),
        as a consistent cut at a superstep boundary — what a real BSP
        runtime writes for failure recovery.

        The snapshot records ``state.property_names`` (so ``restore()``
        can drop properties declared after the cut) and the per-property
        factories (so properties dropped after the cut can be
        re-installed; factories are process-local callables, so on-disk
        checkpoint stores omit them and re-installation degrades to a
        ``None`` default)."""
        if self._current is not None:
            raise RuntimeError("checkpoint only at a superstep boundary")
        return {
            "columns": {
                name: self._copy_column(self.state.column(name))
                for name in self.state.property_names
            },
            "properties": list(self.state.property_names),
            "factories": {
                name: self.state.factory(name)
                for name in self.state.property_names
            },
            "critical": set(self._critical),
            "unsynced": {k: v.copy() for k, v in self._unsynced.items()},
            "superstep": self.superstep_seq,
        }

    @staticmethod
    def _copy_column(column: Any) -> Any:
        """One whole-column copy: scalar NumPy columns copy as a single
        buffer; object columns need a deep copy (vertices own mutable
        sets/lists) but in one call over the column, not a Python loop
        per vertex."""
        if isinstance(column, np.ndarray):
            return column.copy()
        return copy.deepcopy(column)

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Roll the committed state back to a checkpoint.

        The property *set* is rolled back too: properties created after
        the snapshot are dropped (a replayed ``add_property`` must not
        collide with, or read stale values from, a column that survived
        the rollback), and properties dropped after the snapshot are
        re-installed from it."""
        if self._current is not None:
            raise RuntimeError("restore only at a superstep boundary")
        snapshot_names = snapshot.get("properties")
        if snapshot_names is None:  # pre-fault-tolerance snapshot layout
            snapshot_names = list(snapshot["columns"])
        for name in list(self.state.property_names):
            if name not in snapshot_names:
                self.state.remove_property(name)
        factories = snapshot.get("factories") or {}
        for name, column in snapshot["columns"].items():
            # the snapshot's own representation: copying a demoted (list)
            # snapshot into a live array column would truncate its values
            self.state.install_column(
                name, self._copy_column(column), factories.get(name)
            )
        self._critical = set(snapshot["critical"])
        self._unsynced = {k: v.copy() for k, v in snapshot["unsynced"].items()}

    def reset_for_recovery(self) -> None:
        """Reset the logical run state for a recovery re-execution: fresh
        vertex state (the program re-declares its properties as it
        replays), a cleared critical set, and the superstep clock back to
        zero.  Metrics are *kept* — work spent before the failure was
        really spent and stays charged."""
        if self._current is not None:
            self.abort_superstep()
        self.state = type(self.state)(self.graph.num_vertices)
        self._critical = set()
        self._unsynced = {}
        self.superstep_seq = 0
        self.metrics.set_suppressed(self.in_fast_forward)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Flashware(workers={self.partition.num_partitions}, "
            f"critical={sorted(self._critical)}, options={self.options})"
        )
