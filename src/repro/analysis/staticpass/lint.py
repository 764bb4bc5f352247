"""flashlint — FLASH-model misuse rules over the static access-set IR.

Every rule reads the same :class:`~repro.analysis.staticpass.program.ProgramCapture`
the engine's static pass produces, so linting a program is exactly:
run it once on a small graph under :func:`capture_program` and evaluate
the rules.  ``repro lint <app|--all>`` does that for the shipped
applications; tests do it for synthetic kernels.

The rule catalog is :data:`RULES` (rendered by ``repro lint --rules``;
``docs/static_analysis.md`` "flashlint" walks through each rule).  The
per-kernel facts the rules read — writes per role, ``get``-view writes,
mutated captured names, non-commutative or first-temp reduces,
completeness — are folded from the kernel front end's one lowering
(:mod:`repro.analysis.compile.frontend`).

Severities: *errors* are model violations that break on a real cluster
(the simulator often masks them because property storage is physically
shared); *warnings* are either order-dependent results or soundness
fallbacks.  ``repro lint`` exits non-zero only on errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.staticpass.analyzer import FunctionAccess, KernelAccess
from repro.analysis.staticpass.program import ProgramCapture, capture_program

ERROR = "error"
WARNING = "warning"

#: rule id -> (default severity, one-line description) — the catalog
#: rendered by ``repro lint --rules`` and the docs.
RULES: Dict[str, tuple] = {
    "write-to-source": (
        ERROR,
        "edge kernels must not write source-role properties or get views "
        "(mirror writes are discarded / rejected on a real cluster)",
    ),
    "unguarded-target-write": (
        WARNING,
        "target writes belong in M, the condition-guarded map path; "
        "writes staged in F or C can commit even when M never ran",
    ),
    "read-never-written": (
        ERROR,
        "reading a property that is never declared (error) or never "
        "written and defaulted to None (warning) — likely a typo",
    ),
    "noncommutative-reduce": (
        WARNING,
        "R must be associative and commutative (§III-A); order-sensitive "
        "reduces give partition-dependent results",
    ),
    "global-mutation": (
        ERROR,
        "user functions must not mutate captured globals — pass values "
        "through bind() or vertex properties instead",
    ),
    "unsynced-read": (
        WARNING,
        "the static pass could not fully analyze this kernel; reads may "
        "touch unsynced mirror state and the runtime tracer takes over",
    ),
    "sync-of-never-written": (
        ERROR,
        "a critical (mirror-synced) property is never written by any "
        "kernel and defaults to None — the sync traffic is provably "
        "useless and the read is a latent typo",
    ),
    "cross-partition-unplanned-write": (
        ERROR,
        "a sparse kernel writes a target property outside its planned "
        "sync set — the cross-partition write would never reach the "
        "owner on a real cluster",
    ),
}

#: ``repro lint --json`` payload schema.  Bump on any breaking change to
#: the summarize() structure; additions of new keys are non-breaking.
SCHEMA_VERSION = "1"

_EDGE_KINDS = ("edge_map_dense", "edge_map_sparse")


@dataclass
class Finding:
    """One lint diagnostic."""

    rule: str
    severity: str
    message: str
    app: str = ""
    kernel: str = ""
    location: str = ""

    def describe(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "app": self.app,
            "kernel": self.kernel,
            "location": self.location,
        }

    def render(self) -> str:
        prefix = f"{self.app}: " if self.app else ""
        where = f" [{self.kernel}]" if self.kernel else ""
        loc = f" ({self.location})" if self.location else ""
        return f"{prefix}{self.severity}: {self.rule}{where}: {self.message}{loc}"


def _kernel_name(kind: str, label: str) -> str:
    return f"{kind}:{label}" if label else kind


def _slot_findings(
    kind: str,
    kernel: str,
    slot: str,
    fa: FunctionAccess,
    app: str,
    reduce_last: bool = False,
) -> List[Finding]:
    out: List[Finding] = []
    if kind in _EDGE_KINDS:
        src_writes = fa.role_writes("source")
        if src_writes:
            out.append(Finding(
                "write-to-source", ERROR,
                f"{slot} writes source propert{'ies' if len(src_writes) > 1 else 'y'} "
                + ", ".join(sorted(src_writes)),
                app=app, kernel=kernel, location=fa.location,
            ))
        if slot in ("F", "C"):
            tgt_writes = fa.role_writes("target")
            if tgt_writes:
                out.append(Finding(
                    "unguarded-target-write", WARNING,
                    f"{slot} stages target write(s) to "
                    + ", ".join(sorted(tgt_writes))
                    + " outside the M path",
                    app=app, kernel=kernel, location=fa.location,
                ))
    if fa.remote_writes:
        out.append(Finding(
            "write-to-source", ERROR,
            f"{slot} writes through a read-only engine.get view: "
            + ", ".join(sorted(fa.remote_writes)),
            app=app, kernel=kernel, location=fa.location,
        ))
    if fa.mutated_globals:
        out.append(Finding(
            "global-mutation", ERROR,
            f"{slot} mutates captured name(s) "
            + ", ".join(sorted(fa.mutated_globals))
            + " — use bind() or a vertex property",
            app=app, kernel=kernel, location=fa.location,
        ))
    if slot == "R":
        if fa.noncomm_writes:
            out.append(Finding(
                "noncommutative-reduce", WARNING,
                "R combines temps with a non-commutative operator on "
                + ", ".join(sorted(fa.noncomm_writes)),
                app=app, kernel=kernel, location=fa.location,
            ))
        elif fa.returns_param == 0 and not fa.writes and not reduce_last:
            # A registered spec declaring reduce="last" makes the order
            # dependence the kernel's documented contract — the
            # vectorized path reproduces it deterministically, so the
            # warning would only be noise.
            out.append(Finding(
                "noncommutative-reduce", WARNING,
                "R returns its first temp unchanged — the reduce result "
                "depends on arrival order",
                app=app, kernel=kernel, location=fa.location,
            ))
    return out


def _kernel_findings(
    kind: str,
    kernel: str,
    access: KernelAccess,
    app: str,
    spec=None,
    critical: Optional[Set[str]] = None,
) -> List[Finding]:
    reduce_last = getattr(spec, "reduce", None) == "last"
    out: List[Finding] = []
    for slot, fa in access.slots.items():
        if fa is not None:
            out.extend(_slot_findings(
                kind, kernel, slot, fa, app, reduce_last=reduce_last
            ))
    if not access.complete:
        incomplete = sorted(
            slot for slot, fa in access.slots.items()
            if fa is not None and not fa.complete
        )
        out.append(Finding(
            "unsynced-read", WARNING,
            "analysis incomplete for slot(s) " + ", ".join(incomplete)
            + " — possible unsynced mirror reads; runtime tracer takes over",
            app=app, kernel=kernel,
        ))
    if kind == "edge_map_sparse" and access.complete and critical is not None:
        # Every sparse target write crosses partitions (the source-side
        # worker stages it, the target's owner must receive it), so it
        # must be in the kernel's planned sync set — Table II puts it
        # there automatically; anything else is a planner/analyzer
        # inconsistency that would silently drop writes on a cluster.
        unplanned = {p for r, p in access.writes if r == "target"} - critical
        for prop in sorted(unplanned):
            out.append(Finding(
                "cross-partition-unplanned-write", ERROR,
                f"sparse kernel writes target property {prop!r} that its "
                "classification does not plan to sync",
                app=app, kernel=kernel,
            ))
    return out


def _program_findings(capture: ProgramCapture, app: str) -> List[Finding]:
    """Program-level rules, grouped per engine so nested engines (BC,
    SCC, BCC phases) do not cross-contaminate."""
    out: List[Finding] = []
    for _, reports in capture.by_engine().items():
        declared: Set[str] = set()
        initialized: Set[str] = set()
        written: Set[str] = set()
        complete = True
        for report in reports:
            declared |= report.declared
            initialized |= report.initialized
            written |= {p for _, p in report.classification.access.writes}
            written |= report.classification.access.remote_writes
            complete = complete and report.classification.complete
        if not complete:
            # With an unanalyzed slot in the mix the write set is not
            # trustworthy — stay silent rather than guess.
            continue
        flagged: Set[str] = set()
        for report in reports:
            access = report.classification.access
            kernel = _kernel_name(report.kind, report.label)
            read_props = {p for _, p in access.reads} | access.remote_reads
            for prop in sorted(read_props - flagged):
                if prop not in declared:
                    flagged.add(prop)
                    out.append(Finding(
                        "read-never-written", ERROR,
                        f"reads property {prop!r} that no engine declares "
                        "— likely a typo",
                        app=app, kernel=kernel,
                    ))
                elif prop not in written and prop not in initialized:
                    flagged.add(prop)
                    out.append(Finding(
                        "read-never-written", WARNING,
                        f"reads property {prop!r} that is never written and "
                        "defaults to None",
                        app=app, kernel=kernel,
                    ))
        # sync-of-never-written: a property some kernel's classification
        # marks critical — i.e. the executor will spend mirror-sync
        # traffic on it every barrier — that no kernel ever writes and
        # whose default is None.  The mirrors can only ever receive the
        # value they already hold, so the sync is provably useless and
        # the critical-making read is almost certainly a typo.
        synced_flagged: Set[str] = set()
        for report in reports:
            kernel = _kernel_name(report.kind, report.label)
            for prop in sorted(report.classification.critical):
                if prop in synced_flagged or prop not in declared:
                    continue
                if prop not in written and prop not in initialized:
                    synced_flagged.add(prop)
                    out.append(Finding(
                        "sync-of-never-written", ERROR,
                        f"property {prop!r} is mirror-synced for this "
                        "kernel but never written by any kernel and "
                        "defaults to None",
                        app=app, kernel=kernel,
                    ))
    return out


def lint_capture(capture: ProgramCapture, app: str = "") -> List[Finding]:
    """Evaluate every rule over one captured program."""
    findings: List[Finding] = []
    for report in capture.reports:
        findings.extend(_kernel_findings(
            report.kind,
            _kernel_name(report.kind, report.label),
            report.classification.access,
            app,
            spec=report.spec,
            critical=set(report.classification.critical),
        ))
    findings.extend(_program_findings(capture, app))
    # Deterministic order: errors first, then by rule/kernel/message.
    findings.sort(key=lambda f: (f.severity != ERROR, f.rule, f.kernel, f.message))
    return findings


# ---------------------------------------------------------------------------
# Linting shipped applications
# ---------------------------------------------------------------------------
def _lint_graph(app: str):
    """A small deterministic input adapted to the app's requirements."""
    from repro import load_dataset
    from repro.graph.generators import random_graph
    from repro.suite import DIRECTED_APPS, prepare_graph

    if app in DIRECTED_APPS:
        graph = load_dataset("OR", scale=0.05, directed=True)
    else:
        graph = random_graph(24, 64, seed=5)
    return prepare_graph(app, graph)


def lint_app(app: str, num_workers: int = 2) -> List[Finding]:
    """Run every FLASH variant of ``app`` on a small graph under a
    program capture and lint the result."""
    from repro.suite import _FLASH_VARIANTS, APPS

    if app not in APPS:
        raise ValueError(f"unknown app {app!r}; expected one of {APPS}")
    graph = _lint_graph(app)
    with capture_program() as capture:
        for variant in _FLASH_VARIANTS[app]:
            variant(graph, num_workers)
    return lint_capture(capture, app=app)


def lint_apps(apps: Optional[Sequence[str]] = None) -> Dict[str, List[Finding]]:
    """Lint several apps (default: the whole 14-app suite)."""
    from repro.suite import APPS

    out: Dict[str, List[Finding]] = {}
    for app in (apps or APPS):
        out[app] = lint_app(app)
    return out


def summarize(findings_by_app: Dict[str, List[Finding]]) -> dict:
    """The machine-readable payload of ``repro lint --json``.

    Deterministic: apps and the rule catalog are sorted by name, and
    findings are listed app by app in that order (within one app they
    carry ``lint_capture``'s severity/rule/kernel/message order).  The
    payload is versioned by ``schema_version``."""
    apps = sorted(findings_by_app)
    all_findings = [f for app in apps for f in findings_by_app[app]]
    return {
        "schema_version": SCHEMA_VERSION,
        "apps": apps,
        "errors": sum(1 for f in all_findings if f.severity == ERROR),
        "warnings": sum(1 for f in all_findings if f.severity == WARNING),
        "findings": [f.describe() for f in all_findings],
        "rules": {
            rule: {"severity": sev, "description": desc}
            for rule in sorted(RULES)
            for sev, desc in [RULES[rule]]
        },
    }
