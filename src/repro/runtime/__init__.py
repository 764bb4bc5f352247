"""FLASHWARE — the simulated distributed middleware (paper §IV).

The real system runs one MPI process per cluster node; we simulate the
same topology inside a single Python process.  The pieces:

* :class:`~repro.runtime.cluster.ClusterSpec` — nodes × cores topology;
* :class:`~repro.runtime.state.VertexState` — the one current-state
  column store every engine holds: NumPy arrays for scalar properties,
  Python lists for the rest (§IV-A "data layout");
* :class:`~repro.runtime.flashware.Flashware` — ``get`` / ``put`` /
  the one columnar ``barrier`` plus mirror synchronization and the
  runtime optimizations (critical-property-only sync,
  necessary-mirror-only communication);
* :class:`~repro.runtime.metrics.Metrics` — per-superstep accounting of
  compute work and message traffic;
* :class:`~repro.runtime.costmodel.CostModel` — converts metrics into
  simulated wall-clock seconds for a given cluster, reproducing the
  paper's scaling behaviour without the physical testbed;
* :mod:`~repro.runtime.faults` / :mod:`~repro.runtime.recovery` — the
  fault-tolerance layer: deterministic worker-failure injection,
  checkpoint policies and stores, and rollback-replay recovery
  orchestration (see ``docs/fault_tolerance.md``);
* :mod:`~repro.runtime.tracing` — span-based structured tracing of the
  superstep lifecycle with ring-buffer / JSONL / Chrome ``trace_event``
  sinks (see ``docs/observability.md``).
"""

from repro.runtime.cluster import ClusterSpec
from repro.runtime.costmodel import CostBreakdown, CostModel
from repro.runtime.faults import FaultInjector, FaultPlan, WorkerFailure
from repro.runtime.flashware import Flashware, FlashwareOptions
from repro.runtime.metrics import Metrics, SuperstepRecord
from repro.runtime.recovery import (
    AdaptiveCheckpointPolicy,
    CheckpointPolicy,
    CheckpointStore,
    CorruptCheckpointError,
    DiskCheckpointStore,
    MemoryCheckpointStore,
    PeriodicCheckpointPolicy,
    RecoveryManager,
    RecoveryReport,
    RecoveryStats,
    run_with_recovery,
)
from repro.runtime.state import VertexState
from repro.runtime.tracing import (
    ChromeTraceSink,
    JsonlSink,
    NULL_TRACER,
    RingBufferSink,
    Span,
    Tracer,
    load_trace,
)

__all__ = [
    "AdaptiveCheckpointPolicy",
    "CheckpointPolicy",
    "CheckpointStore",
    "ChromeTraceSink",
    "ClusterSpec",
    "CorruptCheckpointError",
    "CostBreakdown",
    "CostModel",
    "DiskCheckpointStore",
    "FaultInjector",
    "FaultPlan",
    "Flashware",
    "FlashwareOptions",
    "JsonlSink",
    "MemoryCheckpointStore",
    "Metrics",
    "NULL_TRACER",
    "PeriodicCheckpointPolicy",
    "RecoveryManager",
    "RecoveryReport",
    "RecoveryStats",
    "RingBufferSink",
    "Span",
    "SuperstepRecord",
    "Tracer",
    "VertexState",
    "WorkerFailure",
    "load_trace",
    "run_with_recovery",
]
