"""Checkpoint policies, checkpoint stores, and recovery orchestration.

This is the fault-tolerance layer above :class:`Flashware`'s raw
``checkpoint()``/``restore()`` pair.  Three pieces:

* **Checkpoint policies** decide *when* to snapshot:
  :class:`PeriodicCheckpointPolicy` every k committed supersteps, or
  :class:`AdaptiveCheckpointPolicy`, which amortizes the snapshot cost
  against the work accumulated since the last snapshot using the shared
  :class:`~repro.runtime.costmodel.CostModel` (Young/Daly-style interval
  selection, driven by simulated seconds instead of wall clock).

* **Checkpoint stores** hold the snapshots: in memory
  (:class:`MemoryCheckpointStore`) or on disk
  (:class:`DiskCheckpointStore`, compressed ``.npz`` for array columns +
  pickle for object columns).  Every snapshot is integrity-checksummed;
  a corrupt snapshot raises :class:`CorruptCheckpointError` on load and
  recovery falls back to the previous one.

* **Recovery orchestration**: :func:`run_with_recovery` wraps any
  algorithm run.  On :class:`~repro.runtime.faults.WorkerFailure` it
  rolls back to the last valid checkpoint and re-executes the program
  deterministically: supersteps already covered by the checkpoint are
  *fast-forwarded* (executed to rebuild program-local state — frontiers,
  DSUs, loop counters — but uncharged, since a real runtime would load
  them from the snapshot), the checkpoint is then restored over the
  rebuilt state (exercising the real restore path), and the supersteps
  between the checkpoint and the failure re-run as charged *replayed*
  work.  Replay, checkpoint writes, and restore traffic all land in
  :class:`~repro.runtime.metrics.Metrics` /
  :class:`~repro.runtime.costmodel.CostBreakdown` as first-class
  entries, so the checkpoint-interval-vs-recovery-cost tradeoff is
  measurable (``benchmarks/bench_recovery.py``).

Because execution is deterministic, a recovered run's final vertex state
is bit-identical to the fault-free run — the invariant
``tests/test_recovery.py`` checks across the whole 14-app suite on both
backends.
"""

from __future__ import annotations

import io
import json
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, WorkerCrashError
from repro.runtime.cluster import ClusterSpec
from repro.runtime.costmodel import CostModel
from repro.runtime.faults import FaultInjector, FaultPlan, WorkerFailure
from repro.runtime.flashware import Flashware, payload_size
from repro.runtime.metrics import SuperstepRecord


class CheckpointError(ReproError):
    """Base class for checkpoint-store errors."""


class CorruptCheckpointError(CheckpointError):
    """A stored snapshot failed its integrity check (or cannot be
    deserialized); the caller should fall back to an older one."""


class RecoveryExhausted(ReproError):
    """Recovery gave up: more worker failures than ``max_retries``."""

    def __init__(self, failure: WorkerFailure, retries: int):
        self.failure = failure
        self.retries = retries
        super().__init__(
            f"recovery exhausted after {retries} retries; last: {failure}"
        )


# ---------------------------------------------------------------------------
# Snapshot volume accounting
# ---------------------------------------------------------------------------
def column_volume(column: Any) -> int:
    """Property values one column contributes to checkpoint traffic, in
    the same scalar units as message accounting (``payload_size``)."""
    if isinstance(column, np.ndarray):
        return int(column.size)
    return sum(payload_size(v) for v in column)


def snapshot_volume(snapshot: Dict[str, Any]) -> int:
    """Total property values a snapshot ships to/from the checkpoint
    store."""
    return sum(column_volume(col) for col in snapshot["columns"].values())


def state_volume(state) -> int:
    """Checkpoint volume the *current* state would produce."""
    return sum(column_volume(state.column(name)) for name in state.property_names)


# ---------------------------------------------------------------------------
# Checkpoint policies
# ---------------------------------------------------------------------------
class CheckpointPolicy:
    """Decides, after each committed superstep, whether to snapshot.

    The base policy never checkpoints (failures then trigger a full
    restart — the degenerate baseline of the interval sweep)."""

    def reset(self) -> None:
        """Forget accumulated state (called once per run attempt)."""

    def should_checkpoint(self, flashware: Flashware, record: SuperstepRecord) -> bool:
        return False

    def describe(self) -> str:
        return "none"


class PeriodicCheckpointPolicy(CheckpointPolicy):
    """Snapshot every ``every`` committed supersteps."""

    def __init__(self, every: int = 4):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.every = every
        self._since = 0

    def reset(self) -> None:
        self._since = 0

    def should_checkpoint(self, flashware: Flashware, record: SuperstepRecord) -> bool:
        self._since += 1
        if self._since >= self.every:
            self._since = 0
            return True
        return False

    def describe(self) -> str:
        return f"every-{self.every}"


class AdaptiveCheckpointPolicy(CheckpointPolicy):
    """Cost-amortizing interval: snapshot once the simulated cost of the
    supersteps since the last snapshot reaches ``alpha`` times the
    estimated cost of writing one snapshot of the current state.

    Cheap supersteps (sparse frontiers) stretch the interval; expensive
    supersteps — exactly the ones worth not replaying — shrink it.  This
    is the classic optimal-interval shape (interval grows with the
    checkpoint cost) expressed through the repository's own cost model
    instead of wall-clock measurements.
    """

    def __init__(
        self,
        model: Optional[CostModel] = None,
        cluster: Optional[ClusterSpec] = None,
        alpha: float = 1.0,
    ):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.model = model or CostModel()
        self.cluster = cluster
        self.alpha = alpha
        self._accumulated = 0.0

    def reset(self) -> None:
        self._accumulated = 0.0

    def _checkpoint_cost(self, flashware: Flashware) -> float:
        p = self.model.params
        volume = state_volume(flashware.state)
        return (
            volume * p.bytes_per_value / p.checkpoint_bandwidth_bytes_per_sec
            + p.latency_per_checkpoint
        )

    def should_checkpoint(self, flashware: Flashware, record: SuperstepRecord) -> bool:
        cluster = self.cluster or ClusterSpec(
            nodes=flashware.partition.num_partitions, cores_per_node=32
        )
        self._accumulated += self.model.superstep_cost(record, cluster).total
        if self._accumulated >= self.alpha * self._checkpoint_cost(flashware):
            self._accumulated = 0.0
            return True
        return False

    def describe(self) -> str:
        return f"adaptive(alpha={self.alpha})"


def make_policy(spec: Optional[str], every: Optional[int] = None) -> CheckpointPolicy:
    """Build a policy from CLI-ish inputs: ``spec`` in
    {None, "periodic", "adaptive", "none"} plus an optional interval."""
    if spec in (None, "periodic"):
        return PeriodicCheckpointPolicy(every if every is not None else 4)
    if spec == "adaptive":
        return AdaptiveCheckpointPolicy()
    if spec == "none":
        return CheckpointPolicy()
    raise ValueError(f"unknown checkpoint policy {spec!r}")


# ---------------------------------------------------------------------------
# Checkpoint stores
# ---------------------------------------------------------------------------
def _serialize_snapshot(snapshot: Dict[str, Any]) -> Tuple[bytes, bytes]:
    """Split a snapshot into ``(npz_bytes, pickle_bytes)``: array columns
    stream through ``np.savez_compressed``; object columns and the
    critical set are pickled.  Factories are process-local callables and
    are deliberately left out."""
    arrays = {
        name: col
        for name, col in snapshot["columns"].items()
        if isinstance(col, np.ndarray)
    }
    rest = {
        "object_columns": {
            name: col
            for name, col in snapshot["columns"].items()
            if not isinstance(col, np.ndarray)
        },
        "properties": snapshot.get("properties", list(snapshot["columns"])),
        "critical": snapshot["critical"],
        "unsynced": snapshot["unsynced"],
        "superstep": snapshot.get("superstep", 0),
    }
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue(), pickle.dumps(rest, protocol=pickle.HIGHEST_PROTOCOL)


def _deserialize_snapshot(npz_bytes: bytes, pkl_bytes: bytes) -> Dict[str, Any]:
    try:
        rest = pickle.loads(pkl_bytes)
        columns: Dict[str, Any] = dict(rest["object_columns"])
        with np.load(io.BytesIO(npz_bytes), allow_pickle=False) as arrays:
            for name in arrays.files:
                columns[name] = arrays[name]
        return {
            "columns": columns,
            "properties": rest["properties"],
            "critical": rest["critical"],
            "unsynced": rest["unsynced"],
            "superstep": rest.get("superstep", 0),
        }
    except CorruptCheckpointError:
        raise
    except Exception as exc:
        raise CorruptCheckpointError(f"undecodable snapshot: {exc}") from exc


class CheckpointStore:
    """Base interface: serialized, checksummed snapshots keyed by the
    superstep id at which they were taken."""

    def save(self, seq: int, snapshot: Dict[str, Any]) -> int:
        """Persist ``snapshot`` as checkpoint ``seq``; return its volume
        (property values shipped)."""
        raise NotImplementedError

    def load(self, seq: int) -> Dict[str, Any]:
        """Load checkpoint ``seq``, verifying integrity.  Raises
        :class:`CorruptCheckpointError` on checksum mismatch and
        :class:`KeyError` when absent."""
        raise NotImplementedError

    def seqs(self) -> List[int]:
        """Stored checkpoint ids, ascending."""
        raise NotImplementedError

    def has(self, seq: int) -> bool:
        return seq in self.seqs()

    def latest_valid(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest loadable checkpoint as ``(seq, snapshot)``; corrupt
        snapshots are skipped (and dropped), ``None`` when nothing
        usable remains."""
        for seq in sorted(self.seqs(), reverse=True):
            try:
                return seq, self.load(seq)
            except CorruptCheckpointError:
                self.discard(seq)
        return None

    def discard(self, seq: int) -> None:
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """Snapshots held as checksummed pickled blobs in memory.

    Serialization is real (the blob is independent of the live state and
    its checksum detects corruption); only the per-property factories —
    callables that cannot survive serialization — ride alongside so a
    restore can re-install dropped properties with their real defaults.
    """

    def __init__(self) -> None:
        self._blobs: Dict[int, Tuple[bytes, bytes, int, int, int]] = {}
        self._factories: Dict[int, Dict[str, Callable[[], Any]]] = {}

    def save(self, seq: int, snapshot: Dict[str, Any]) -> int:
        npz, pkl = _serialize_snapshot(snapshot)
        self._blobs[seq] = (npz, pkl, zlib.crc32(npz), zlib.crc32(pkl),
                           snapshot_volume(snapshot))
        self._factories[seq] = dict(snapshot.get("factories") or {})
        return self._blobs[seq][4]

    def load(self, seq: int) -> Dict[str, Any]:
        npz, pkl, crc_npz, crc_pkl, _ = self._blobs[seq]
        if zlib.crc32(npz) != crc_npz or zlib.crc32(pkl) != crc_pkl:
            raise CorruptCheckpointError(f"checkpoint {seq} failed checksum")
        snapshot = _deserialize_snapshot(npz, pkl)
        snapshot["factories"] = dict(self._factories.get(seq, {}))
        return snapshot

    def seqs(self) -> List[int]:
        return sorted(self._blobs)

    def discard(self, seq: int) -> None:
        self._blobs.pop(seq, None)
        self._factories.pop(seq, None)

    def corrupt(self, seq: int) -> None:
        """Flip a byte of checkpoint ``seq`` (test/chaos helper)."""
        npz, pkl, crc_npz, crc_pkl, vol = self._blobs[seq]
        pkl = bytes([pkl[0] ^ 0xFF]) + pkl[1:]
        self._blobs[seq] = (npz, pkl, crc_npz, crc_pkl, vol)


class DiskCheckpointStore(CheckpointStore):
    """Snapshots on disk: ``ckpt_<seq>.npz`` (compressed array columns),
    ``ckpt_<seq>.pkl`` (object columns + critical set) and
    ``ckpt_<seq>.json`` (CRC32 checksums + volume)."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _paths(self, seq: int) -> Tuple[Path, Path, Path]:
        base = self.directory / f"ckpt_{seq}"
        return (base.with_suffix(".npz"), base.with_suffix(".pkl"),
                base.with_suffix(".json"))

    def save(self, seq: int, snapshot: Dict[str, Any]) -> int:
        npz, pkl = _serialize_snapshot(snapshot)
        volume = snapshot_volume(snapshot)
        npz_path, pkl_path, meta_path = self._paths(seq)
        npz_path.write_bytes(npz)
        pkl_path.write_bytes(pkl)
        meta_path.write_text(json.dumps({
            "seq": seq,
            "crc_npz": zlib.crc32(npz),
            "crc_pkl": zlib.crc32(pkl),
            "volume": volume,
        }))
        return volume

    def load(self, seq: int) -> Dict[str, Any]:
        npz_path, pkl_path, meta_path = self._paths(seq)
        if not meta_path.exists():
            raise KeyError(seq)
        try:
            meta = json.loads(meta_path.read_text())
            npz = npz_path.read_bytes()
            pkl = pkl_path.read_bytes()
        except (OSError, ValueError) as exc:
            raise CorruptCheckpointError(f"unreadable checkpoint {seq}: {exc}") from exc
        if zlib.crc32(npz) != meta["crc_npz"] or zlib.crc32(pkl) != meta["crc_pkl"]:
            raise CorruptCheckpointError(f"checkpoint {seq} failed checksum")
        return _deserialize_snapshot(npz, pkl)

    def seqs(self) -> List[int]:
        out = []
        for path in self.directory.glob("ckpt_*.json"):
            stem = path.stem[len("ckpt_"):]
            if stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def discard(self, seq: int) -> None:
        for path in self._paths(seq):
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Recovery orchestration
# ---------------------------------------------------------------------------
@dataclass
class RecoveryStats:
    """What fault tolerance did and what it cost, in metrics units."""

    failures: int = 0
    restarts: int = 0  # rollbacks with no usable checkpoint
    rollbacks: int = 0  # rollbacks onto a checkpoint
    corrupt_checkpoints: int = 0
    checkpoints_written: int = 0
    checkpoint_values: int = 0
    restore_values: int = 0
    replayed_supersteps: int = 0
    aborted_supersteps: int = 0
    # Real-crash (process-level) recovery accounting.
    process_crashes: int = 0  # WorkerCrashError failures (vs simulated)
    respawns: int = 0  # worker processes respawned
    respawn_wall_s: float = 0.0  # wall time spent respawning + re-shipping
    reshipped_values: int = 0  # property values re-shipped to fresh workers
    reshipped_bytes: int = 0  # wire bytes of the respawn re-ship
    failure_log: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "failures": self.failures,
            "restarts": self.restarts,
            "rollbacks": self.rollbacks,
            "corrupt_checkpoints": self.corrupt_checkpoints,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_values": self.checkpoint_values,
            "restore_values": self.restore_values,
            "replayed_supersteps": self.replayed_supersteps,
            "aborted_supersteps": self.aborted_supersteps,
            "process_crashes": self.process_crashes,
            "respawns": self.respawns,
            "respawn_wall_s": round(self.respawn_wall_s, 6),
            "reshipped_values": self.reshipped_values,
            "reshipped_bytes": self.reshipped_bytes,
            "failure_log": list(self.failure_log),
        }


@dataclass
class RecoveryReport:
    """Outcome of a fault-tolerant run: the program's own result plus the
    recovery accounting."""

    result: Any
    stats: RecoveryStats


class RecoveryManager:
    """Orchestrates checkpointing and rollback for one engine run.

    Attaches to the engine's FLASHWARE: the fault injector is polled at
    superstep begin/barrier, and the post-commit hook drives the
    checkpoint policy and applies pending restores at the rollback
    boundary.  :meth:`run` executes a program (``engine -> result``)
    under this supervision with bounded retries.
    """

    def __init__(
        self,
        engine,
        policy: Optional[CheckpointPolicy] = None,
        store: Optional[CheckpointStore] = None,
        injector: Optional[FaultInjector] = None,
        plan: Optional[FaultPlan] = None,
        max_retries: int = 5,
    ):
        if injector is None and plan is not None:
            injector = plan.injector()
        self.engine = engine
        self.policy = policy if policy is not None else PeriodicCheckpointPolicy(4)
        self.store = store if store is not None else MemoryCheckpointStore()
        self.injector = injector
        self.max_retries = max_retries
        self.stats = RecoveryStats()
        # Restore staged by a rollback, applied at the fast-forward
        # boundary: (checkpoint seq, snapshot).
        self._pending: Optional[Tuple[int, Dict[str, Any]]] = None

    # -- FLASHWARE hook -------------------------------------------------
    def _after_commit(self, fw: Flashware, rec: SuperstepRecord) -> None:
        seq = fw.superstep_seq
        if self._pending is not None and seq >= self._pending[0]:
            ckpt_seq, snapshot = self._pending
            self._pending = None
            span = (
                fw.tracer.start("restore", "recovery", seq=ckpt_seq)
                if fw.tracer.enabled
                else None
            )
            fw.restore(snapshot)
            if span is not None:
                span.end(restore_values=snapshot_volume(snapshot))
        if fw.in_fast_forward:
            return
        if self.policy.should_checkpoint(fw, rec) and not self.store.has(seq):
            span = (
                fw.tracer.start(
                    "checkpoint", "recovery",
                    seq=seq, policy=self.policy.describe(),
                )
                if fw.tracer.enabled
                else None
            )
            volume = self.store.save(seq, fw.checkpoint())
            rec.checkpoints += 1
            rec.checkpoint_values += volume
            self.stats.checkpoints_written += 1
            self.stats.checkpoint_values += volume
            if span is not None:
                span.end(volume=volume)

    # -- rollback -------------------------------------------------------
    def _rollback(
        self,
        fw: Flashware,
        failure: WorkerFailure,
        respawn_report: Optional[Dict[str, Any]] = None,
    ) -> None:
        failed_seq = fw.superstep_seq
        worker = getattr(failure, "worker", None)
        span = (
            fw.tracer.start(
                "rollback", "recovery",
                failed_seq=failed_seq, worker=worker,
            )
            if fw.tracer.enabled
            else None
        )
        known = len(self.store.seqs())
        found = self.store.latest_valid()
        self.stats.corrupt_checkpoints += known - len(self.store.seqs())
        # Charge the rollback: one synthetic record carrying the restore
        # traffic (checkpoint read back over the wire) — plus, after a
        # real crash, the respawn and its state re-ship — attributed to
        # the recovery component of the cost model.
        who = "?" if worker is None else worker
        rec = fw.metrics.new_record(
            "recovery_restore",
            label=f"worker {who} died @s{failed_seq}",
        )
        rec.replayed = True
        if respawn_report is not None:
            rec.respawns = len(respawn_report["respawned"])
            rec.reshipped_values = respawn_report["values"]
        if found is None:
            ckpt_seq, snapshot = 0, None
            self.stats.restarts += 1
        else:
            ckpt_seq, snapshot = found
            rec.restore_values = snapshot_volume(snapshot)
            self.stats.restore_values += rec.restore_values
            self.stats.rollbacks += 1
        crashed = " (process crash)" if isinstance(failure, WorkerCrashError) else ""
        self.stats.failure_log.append(
            f"superstep {failed_seq}: worker {who} died{crashed}; "
            + (f"rolled back to checkpoint {ckpt_seq}" if snapshot is not None
               else "no checkpoint, full restart")
        )
        fw.reset_for_recovery()
        fw.set_replay_window(ff_until=ckpt_seq, replay_until=failed_seq)
        self._pending = (ckpt_seq, snapshot) if snapshot is not None else None
        self.policy.reset()
        if span is not None:
            span.end(
                ckpt_seq=ckpt_seq,
                restart=snapshot is None,
                restore_values=rec.restore_values,
            )
            fw.tracer.instant(
                "replay.window", "recovery",
                ff_until=ckpt_seq, replay_until=failed_seq,
            )

    # -- driver ---------------------------------------------------------
    def run(self, program: Callable[[Any], Any]) -> RecoveryReport:
        fw = self.engine.flashware
        fw.fault_injector = self.injector
        fw.on_commit = self._after_commit
        self.policy.reset()
        retries = 0
        try:
            while True:
                try:
                    result = program(self.engine)
                    break
                except (WorkerFailure, WorkerCrashError) as failure:
                    self.stats.failures += 1
                    if retries >= self.max_retries:
                        raise RecoveryExhausted(failure, retries) from failure
                    retries += 1
                    respawn_report = None
                    if isinstance(failure, WorkerCrashError):
                        # A real worker process died (or hung): respawn it
                        # and rebuild its graph views and session state
                        # *before* rolling back, so the replay runs on a
                        # whole pool again.
                        heal = getattr(fw, "heal_workers", None)
                        if heal is None:
                            raise  # no real workers to heal (inline run)
                        self.stats.process_crashes += 1
                        respawn_report = heal()
                        self.stats.respawns += len(respawn_report["respawned"])
                        self.stats.respawn_wall_s += respawn_report["wall_s"]
                        self.stats.reshipped_values += respawn_report["values"]
                        self.stats.reshipped_bytes += respawn_report["bytes"]
                    self._rollback(fw, failure, respawn_report)
        finally:
            fw.fault_injector = None
            fw.on_commit = None
            fw.set_replay_window(0, 0)
            self._pending = None
        metrics = fw.metrics
        self.stats.replayed_supersteps = metrics.replayed_supersteps
        self.stats.aborted_supersteps = metrics.aborted_supersteps
        return RecoveryReport(result=result, stats=self.stats)


def run_with_recovery(
    engine,
    program: Callable[[Any], Any],
    *,
    plan: Optional[FaultPlan] = None,
    injector: Optional[FaultInjector] = None,
    policy: Optional[CheckpointPolicy] = None,
    store: Optional[CheckpointStore] = None,
    max_retries: int = 5,
) -> RecoveryReport:
    """Run ``program(engine)`` with checkpointing and automatic rollback
    recovery; the one-call driver used by ``suite.py`` and
    ``repro run --faults``."""
    manager = RecoveryManager(
        engine,
        policy=policy,
        store=store,
        injector=injector,
        plan=plan,
        max_retries=max_retries,
    )
    return manager.run(program)
