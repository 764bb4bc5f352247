"""Table II over static access sets (paper §IV-B/§IV-C).

The classification itself is the same one :func:`repro.core.analysis.classify_events`
applies to runtime traces — a property is *critical* iff it is

* read as the **source** property of an ``EDGEMAPDENSE``, or
* read/written as the **target** property of an ``EDGEMAPSPARSE``

— but applied to the analyzer's *may*-sets instead of a single observed
path, so branch-dependent accesses are covered ahead of time.  Reads
through FLASHWARE's ``get`` views reach arbitrary (possibly remote)
vertices and are critical in every kernel kind, which is the verdict the
runtime promotion fallback (:class:`repro.core.engine._RemoteGetView`)
reaches lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.analysis.compile import frontend
from repro.analysis.staticpass.analyzer import KernelAccess, access_of


@dataclass
class StaticClassification:
    """The ahead-of-time verdict for one kernel."""

    kind: str
    access: KernelAccess
    #: Properties that must be synced to mirrors (Table II + remote gets).
    critical: Set[str] = field(default_factory=set)
    #: Every property the kernel may touch.
    seen: Set[str] = field(default_factory=set)

    @property
    def complete(self) -> bool:
        """Whether the static sets are sound on their own.  When False
        (a slot had no recoverable source, or a role escaped the
        analysis) the engine keeps the runtime sample tracer as the
        safety net for this kernel."""
        return self.access.complete


def classify_kernel(access: KernelAccess) -> StaticClassification:
    """Derive the critical-property set of one kernel from its access
    sets, per Table II."""
    critical: Set[str] = set()
    if access.kind == "edge_map_dense":
        critical |= {p for role, p in access.reads if role == "source"}
    elif access.kind == "edge_map_sparse":
        critical |= {p for role, p in access.reads | access.writes if role == "target"}
    # VERTEXMAP accesses are never critical by Table II; only get-view
    # reads (below) can make a vertex_map property critical.
    critical |= access.remote_reads
    return StaticClassification(
        kind=access.kind, access=access, critical=critical, seen=access.seen
    )


def analyze_kernel(kind: str, F=None, M=None, C=None, R=None) -> StaticClassification:
    """One-call entry point: analyze the kernel's user functions and
    classify the result (memoised on the kernel's front-end entry)."""
    entry = frontend.kernel(kind, F=F, M=M, C=C, R=R)
    if entry.classification is None:
        access = access_of(entry)
        entry.classification = frontend.intern(
            ("classification", id(access)), lambda: classify_kernel(access)
        )
    return entry.classification


def cross_check(
    static: StaticClassification,
    traced_critical: Set[str],
    traced_seen: Set[str],
) -> Optional[str]:
    """Compare the static verdict against a runtime trace of the same
    kernel (the *oracle* role tracing keeps under ``analysis="check"``).

    A sound static pass must cover everything the trace observed; a
    single-path trace legitimately sees *less* (branches not taken on
    the sample edge), so only ``trace - static`` is a disagreement.
    Returns a human-readable description of the disagreement, or
    ``None`` when the static sets cover the trace.
    """
    missed = [
        f"trace-{what} properties missed by the static pass: " + ", ".join(sorted(props))
        for what, props in (
            ("critical", traced_critical - static.critical),
            ("seen", traced_seen - static.seen),
        )
        if props
    ]
    return f"{static.kind}: " + "; ".join(missed) if missed else None
