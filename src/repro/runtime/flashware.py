"""FLASHWARE — the middleware between the FLASH primitives and the
(simulated) distributed runtime (paper §IV-A).

Responsibilities reproduced here:

* **current/next state separation** — user functions read the consistent
  current snapshot; writes are staged and committed at ``barrier()``;
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
measurements observe (see DESIGN.md §5).
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import FlashUsageError
from repro.graph.graph import Graph
from repro.graph.partition import PartitionMap, partition_graph
from repro.runtime.faults import FaultInjector, WorkerFailure
from repro.runtime.metrics import Metrics, SuperstepRecord
from repro.runtime.state import VertexState
from repro.runtime.tracing import SpanHandle, current_tracer

#: Superstep kind -> trace span name (the span taxonomy of
#: ``docs/observability.md``).
_SPAN_NAMES = {
    "vertex_map": "vertexmap",
    "edge_map_dense": "edgemap.pull",
    "edge_map_sparse": "edgemap.push",
    "collect": "collect",
}


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


@dataclass(frozen=True)
class FlashwareOptions:
    """Runtime-optimization switches (§IV-C).  Both default to on, as in
    the paper; benchmarks toggle them for the ablation study."""

    sync_critical_only: bool = True
    necessary_mirrors_only: bool = True


class Flashware:
    """The middleware instance backing one FLASH (or baseline) program."""

    #: When True, ``barrier`` collects the per-vertex commit log and hands
    #: it to :meth:`_after_commit_updates` — the hook the distributed
    #: executor overrides to turn the *charged* mirror sync into real
    #: inter-process delta batches.  Off (and free) on the base class.
    _needs_commit_log = False

    def __init__(
        self,
        graph: Graph,
        num_workers: int = 4,
        options: Optional[FlashwareOptions] = None,
        partition_strategy: str = "hash",
        partition: Optional[PartitionMap] = None,
        typed_state: bool = False,
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
        if typed_state:
            from repro.runtime.vectorized.state import TypedVertexState

            self.state: VertexState = TypedVertexState(graph.num_vertices)
        else:
            self.state = VertexState(graph.num_vertices)
        self._critical: Set[str] = set()
        self._current: Optional[SuperstepRecord] = None
        self._ops_suppressed = False
        #: Structured tracing (see :mod:`repro.runtime.tracing`).  The
        #: ambient tracer is picked up at construction; the default is
        #: the no-op NULL_TRACER, keeping the untraced path free.
        self.tracer = current_tracer()
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
        updates: Dict[int, Dict[str, Any]],
        contributors: Optional[Dict[int, Set[int]]] = None,
        broadcast_all: bool = False,
        frontier_out: int = 0,
    ) -> Set[int]:
        """Commit staged updates, ending the current superstep.

        Parameters
        ----------
        updates:
            Final next-state values per vertex (already reduced by the
            engine when in push mode): ``{vid: {prop: value}}``.
        contributors:
            For push-mode supersteps, the partitions that produced temp
            values per vertex; remote ones are charged as the
            mirror→master reduce round (one message per remote partition,
            thanks to mirror-side pre-aggregation).
        broadcast_all:
            True when the superstep used virtual edges outside ``E`` —
            the master must then sync to mirrors in *all* partitions
            (§IV-C last paragraph).
        frontier_out:
            Size of the resulting vertex subset (metrics only).

        Returns
        -------
        The set of vertex ids whose state actually changed.
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
        changed_vids: Set[int] = set()
        contributors = contributors or {}
        commit_log: list = []
        debt: Dict[str, list] = {}

        for vid, props in updates.items():
            changed = {
                name: value
                for name, value in props.items()
                if not values_equal(self.state.get(vid, name), value)
            }
            owner = self.partition.owner_of(vid)

            remote_sources = {p for p in contributors.get(vid, ()) if p != owner}
            if remote_sources:
                rec.reduce_messages += len(remote_sources)
                size = sum(payload_size(v) for v in props.values()) or 1
                rec.reduce_values += len(remote_sources) * size

            if not changed:
                continue
            changed_vids.add(vid)
            for name, value in changed.items():
                self.state.set(vid, name, value)

            sync_props = [
                name
                for name in changed
                if not self.options.sync_critical_only or name in self._critical
            ]
            if self._needs_commit_log:
                commit_log.append((vid, changed, sync_props))
            if self.options.sync_critical_only:
                for name in changed:
                    if name not in self._critical:
                        debt.setdefault(name, []).append(vid)
            if not sync_props:
                continue
            if broadcast_all or not self.options.necessary_mirrors_only:
                mirrors = self.partition.all_mirrors(vid)
            else:
                mirrors = self.partition.neighbor_mirrors(vid)
            if mirrors:
                rec.sync_messages += len(mirrors)
                size = sum(payload_size(changed[name]) for name in sync_props)
                rec.sync_values += len(mirrors) * size

        for name, vids in debt.items():
            self._record_debt(name, vids)
        rec.frontier_out = frontier_out
        if sync_span is not None:
            sync_span.end(
                changed=len(changed_vids),
                sync_messages=rec.sync_messages,
                sync_values=rec.sync_values,
                reduce_messages=rec.reduce_messages,
                reduce_values=rec.reduce_values,
            )
        if self._needs_commit_log:
            self._after_commit_updates(commit_log, broadcast_all, rec)
        self._finish_commit(rec)
        return changed_vids

    def _record_debt(self, name: str, vids: Any) -> None:
        """Note that non-critical ``name`` changed at ``vids`` unsynced."""
        mask = self._unsynced.get(name)
        if mask is None:
            mask = self._unsynced[name] = np.zeros(self.graph.num_vertices, dtype=bool)
        mask[vids] = True

    def _after_commit_updates(self, commits, broadcast_all: bool, rec: SuperstepRecord) -> None:
        """Hook called with the commit log just before a superstep's
        commit is finalized — only when :attr:`_needs_commit_log` is set.
        The distributed executor overrides this to ship the committed
        deltas to the worker processes; the base (simulated) runtime has
        nothing to do."""

    def barrier_columnar(
        self,
        ids: Any,
        updates: Dict[str, Any],
        reduce_pairs: Optional[Tuple[Any, Any]] = None,
        broadcast_all: bool = False,
        frontier_out: int = 0,
    ) -> None:
        """Columnar twin of :meth:`barrier` used by the vectorized
        kernels: same accounting, bulk arrays instead of per-vertex
        dicts.

        Parameters
        ----------
        ids:
            Sorted array of vertex ids with staged updates.
        updates:
            ``{prop: column}`` where each column is parallel to ``ids``
            — a NumPy array for scalar properties or a Python list for
            object-valued ones.
        reduce_pairs:
            For push mode, the distinct ``(target, contributing
            partition)`` pairs as two parallel arrays; remote pairs are
            charged as the mirror→master reduce round exactly as
            :meth:`barrier` charges ``contributors``.
        """
        rec = self._current
        if rec is None:
            raise RuntimeError("barrier_columnar() called outside a superstep")
        self._poll_faults("barrier")
        sync_span = (
            self.tracer.start("barrier.sync", "barrier", seq=self.superstep_seq)
            if self.tracer.enabled
            else None
        )
        ids = np.asarray(ids, dtype=np.int64)
        n_ids = len(ids)
        state = self.state
        part = self.partition
        owners = part.owners()

        # ---- pass 1: validate, compute changed masks and payload sizes
        changed_masks: Dict[str, np.ndarray] = {}
        payloads: Dict[str, Optional[np.ndarray]] = {}
        for name, new in updates.items():
            col = state.column(name)
            if isinstance(col, np.ndarray) and isinstance(new, np.ndarray):
                if not np.can_cast(new.dtype, col.dtype, casting="same_kind"):
                    raise RuntimeError(
                        f"columnar update for {name!r} has dtype {new.dtype} "
                        f"incompatible with column dtype {col.dtype}"
                    )
                cur = col[ids]
                mask = cur != new
                if col.dtype.kind == "f" and new.dtype.kind == "f":
                    # NaN != NaN, but an unchanged NaN is not a change
                    # (mirror of values_equal on the interp path).
                    mask &= ~(np.isnan(cur) & np.isnan(new))
                payloads[name] = None  # scalar payload == 1
            else:
                mask = np.zeros(n_ids, dtype=bool)
                pay = np.ones(n_ids, dtype=np.int64)
                if isinstance(col, np.ndarray):
                    raise RuntimeError(
                        f"columnar update for {name!r} is object-valued but "
                        "the column is an array"
                    )
                for i, vid in enumerate(ids.tolist()):
                    value = new[i]
                    pay[i] = payload_size(value)
                    if not values_equal(col[vid], value):
                        mask[i] = True
                payloads[name] = pay
            changed_masks[name] = mask

        # ---- reduce round (push mode): charged for every updated vertex
        # with remote contributors, changed or not (as in barrier())
        if reduce_pairs is not None and n_ids:
            ptgt = np.asarray(reduce_pairs[0], dtype=np.int64)
            ppart = np.asarray(reduce_pairs[1], dtype=np.int64)
            remote = ppart != owners[ptgt]
            rtgt = ptgt[remote]
            if len(rtgt):
                rec.reduce_messages += int(len(rtgt))
                size = np.zeros(n_ids, dtype=np.int64)
                for name in updates:
                    pay = payloads[name]
                    size += pay if pay is not None else 1
                np.maximum(size, 1, out=size)
                rec.reduce_values += int(size[np.searchsorted(ids, rtgt)].sum())

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
            mask = changed_masks[name]
            if not mask.any():
                continue
            changed_ids = ids[mask]
            col = state.column(name)
            if isinstance(col, np.ndarray) and isinstance(new, np.ndarray):
                col[changed_ids] = new[mask]
            else:
                for i in np.flatnonzero(mask).tolist():
                    col[int(ids[i])] = new[i]
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
                changed=int(sum(m.sum() for m in changed_masks.values())),
                sync_messages=rec.sync_messages,
                sync_values=rec.sync_values,
                reduce_messages=rec.reduce_messages,
                reduce_values=rec.reduce_values,
            )
        self._finish_commit(rec)

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
            restored = self._copy_column(column)
            if not self.state.has_property(name):
                self.state.install_column(name, restored, factories.get(name))
                continue
            live = self.state.column(name)
            if isinstance(live, np.ndarray) and isinstance(restored, np.ndarray):
                live[:] = restored
            elif isinstance(live, list) and isinstance(restored, np.ndarray):
                # the column was demoted to a list after the checkpoint
                live[:] = restored.tolist()
            elif isinstance(live, np.ndarray):
                for vid in range(len(live)):
                    live[vid] = restored[vid]
            else:
                live[:] = restored
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
