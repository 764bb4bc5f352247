"""Whole-program capture: collect every kernel's static classification.

The lint rules are partly *program-level* (a property read by one kernel
but written by none, for instance), so they need to see every kernel a
FLASH program issues — including kernels of nested engines (BC, SCC and
BCC build sub-engines per phase).  The capture is therefore *ambient*:
:func:`capture_program` installs a collector, and the engine-side
analysis dispatcher (:mod:`repro.core.analysis`) reports each kernel's
classification to every active collector, whichever engine issued it::

    with capture_program() as prog:
        bfs(graph, root=0)
    findings = lint_capture(prog)

Capture costs nothing when inactive — the dispatcher checks a single
module-level list before building a report.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.staticpass.tableii import StaticClassification

#: Stack of active collectors (nested ``with`` blocks all receive
#: reports; normal use has zero or one entry).
_collectors: List["ProgramCapture"] = []


@dataclass
class KernelReport:
    """One analyzed kernel, as seen by a collector."""

    kind: str
    label: str
    #: Identity of the issuing engine's FLASHWARE — program-level rules
    #: group by it so nested engines do not cross-contaminate.
    engine_id: int
    classification: StaticClassification
    #: Properties declared on the engine at analysis time.
    declared: Set[str] = field(default_factory=set)
    #: Properties whose declared default value is non-None — initialized
    #: data that is legitimately read without ever being written by a
    #: kernel (random priorities, edge weights, ...).
    initialized: Set[str] = field(default_factory=set)
    #: The vectorized spec registered alongside the kernel, when one was
    #: (hand-written or synthesized) — lint rules consult its declared
    #: reduce semantics.
    spec: Optional[Any] = None


class ProgramCapture:
    """Accumulates :class:`KernelReport` entries for one captured run."""

    def __init__(self) -> None:
        self.reports: List[KernelReport] = []
        #: Runtime diagnostics raised during the captured run (static
        #: fallbacks, static/trace disagreements, runtime promotions).
        self.diagnostics: List[str] = []
        #: Those showing a static verdict incomplete: static/trace
        #: disagreements and runtime promotions.
        self.unsound: List[str] = []
        self._by_key: Dict[Tuple, KernelReport] = {}
        #: engine id -> its flashware, held so ids stay unique while capturing
        self.live: Dict[int, Any] = {}

    def add(self, report: KernelReport) -> None:
        # Iterative programs re-issue the same kernel hundreds of times;
        # one report per distinct (engine, kernel) is enough for the
        # rules — later sightings only widen the declared-property sets.
        key = (report.engine_id, report.kind, id(report.classification.access))
        existing = self._by_key.get(key)
        if existing is not None:
            existing.declared |= report.declared
            existing.initialized |= report.initialized
            if existing.spec is None:
                existing.spec = report.spec
            return
        self._by_key[key] = report
        self.reports.append(report)

    def by_engine(self) -> Dict[int, List[KernelReport]]:
        grouped: Dict[int, List[KernelReport]] = {}
        for report in self.reports:
            grouped.setdefault(report.engine_id, []).append(report)
        return grouped


def capturing() -> bool:
    """Cheap hot-path check used by the engine-side dispatcher."""
    return bool(_collectors)


def record(
    engine,
    kind: str,
    label: str,
    classification: StaticClassification,
    spec: Optional[Any] = None,
) -> None:
    """Report one analyzed kernel to every active collector."""
    if not _collectors:
        return
    state = engine.flashware.state
    declared = set(state.property_names)
    initialized = set()
    for name in declared:
        try:
            if state.factory(name)() is not None:
                initialized.add(name)
        except Exception:  # a factory needing context it lacks here
            initialized.add(name)
    report = KernelReport(
        kind=kind,
        label=label,
        engine_id=id(engine.flashware),
        classification=classification,
        declared=declared,
        initialized=initialized,
        spec=spec,
    )
    for collector in _collectors:
        collector.live.setdefault(report.engine_id, engine.flashware)
        collector.add(report)


def record_diagnostic(message: str, unsound: bool = False) -> None:
    """Forward a runtime diagnostic to every active collector."""
    for collector in _collectors:
        collector.diagnostics.append(message)
        if unsound:
            collector.unsound.append(message)


@contextmanager
def capture_program() -> Iterator[ProgramCapture]:
    """Collect the static classification of every kernel analyzed inside
    the block (across all engines, nested ones included)."""
    capture = ProgramCapture()
    _collectors.append(capture)
    try:
        yield capture
    finally:
        _collectors.remove(capture)
