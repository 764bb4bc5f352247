"""The ``repro plan`` artifact: one application's compiled plan.

:func:`build_plan` runs every FLASH variant of an application on a small
deterministic graph with the vectorized backend, capturing three
things:

* per-kernel Table II classification (the staticpass program capture);
* per-kernel dispatch decision — vectorized via a synthesized spec,
  vectorized via a hand-written spec (only where synthesis refuses the
  kernel), or interpreted — with the reason for every kernel that has
  no synthesized spec (the synthesizer's refusal, ``edge set is not E
  (<type>)`` for a constructed edge set, or a spec the columnar kernels
  declined);
* the accumulated :class:`~repro.analysis.compile.commplan.CommunicationPlan`
  with a static prediction of the mirror-sync entries a full-column
  update costs under the planned scopes vs. plain broadcast.

The capture is ambient (engines report through :func:`note_engine`), so
nested engines — BC phases, SCC/BCC sub-programs — contribute their
kernels too, exactly like the lint capture.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.compile.commplan import CommunicationPlan

#: nominal wire size of one property value (the prediction is a ratio,
#: so the constant only sets the unit)
VALUE_BYTES = 8

_collectors: List["PlanCapture"] = []


class PlanCapture:
    """Ambient collector of every engine that builds a kernel plan inside
    a :func:`capture_plan` block."""

    def __init__(self) -> None:
        #: flashware id -> (partition, comm_plan, kernel_plan) — the
        #: dicts mutate in place, so reading them after the run sees the
        #: final state.
        self.engines: Dict[int, Any] = {}
        self.live: List[Any] = []

    def merged_kernels(self) -> Dict[str, Dict[str, Any]]:
        merged: Dict[str, Dict[str, Any]] = {}
        for _pid, (_part, _plan, kernel_plan) in sorted(self.engines.items()):
            for key, entry in kernel_plan.items():
                have = merged.get(key)
                if have is None:
                    merged[key] = dict(entry)
                else:
                    have["dispatched"] = have["dispatched"] or entry["dispatched"]
                    if have.get("origin") is None:
                        have["origin"] = entry.get("origin")
                    if have.get("reason") is None:
                        have["reason"] = entry.get("reason")
        return merged

    def merged_comm_plan(self) -> CommunicationPlan:
        """Union of every engine's plan, conservatively: a property is
        ``neighbor`` only if no engine widened it, and the merged plan is
        active only if every engine's plan is."""
        merged = CommunicationPlan()
        for _pid, (_part, plan, _kp) in sorted(self.engines.items()):
            if plan is None:
                continue
            if not plan.active:
                merged.deactivate(plan.reason or "engine plan inactive")
                continue
            for prop, scope in plan.scopes.items():
                merged._merge(prop, scope, "merge")
            merged.kernels.extend(plan.kernels)
        return merged

    def partition(self):
        for _pid, (part, _plan, _kp) in sorted(self.engines.items()):
            return part
        return None


def capturing() -> bool:
    return bool(_collectors)


def note_engine(engine) -> None:
    """Register one engine with every active collector (called from the
    engine's dispatch bookkeeping)."""
    fw = engine.flashware
    for cap in _collectors:
        if id(fw) not in cap.engines:
            cap.engines[id(fw)] = (fw.partition, engine.comm_plan, engine.kernel_plan)
            # holding the flashware keeps its id unique while capturing
            cap.live.append(fw)


@contextmanager
def capture_plan() -> Iterator[PlanCapture]:
    cap = PlanCapture()
    _collectors.append(cap)
    try:
        yield cap
    finally:
        _collectors.remove(cap)


# ---------------------------------------------------------------------------
# Building a plan for one application
# ---------------------------------------------------------------------------
@dataclass
class AppPlan:
    """The compiled plan of one application run."""

    app: str
    num_workers: int
    kernels: List[Dict[str, Any]] = field(default_factory=list)
    scopes: Dict[str, str] = field(default_factory=dict)
    plan_active: bool = True
    plan_reason: Optional[str] = None
    #: per-property predicted mirror-sync entries for one full-column
    #: update under the planned scope vs plain broadcast
    predicted: Dict[str, Dict[str, int]] = field(default_factory=dict)
    diagnostics: List[str] = field(default_factory=list)

    @property
    def synthesized_kernels(self) -> List[str]:
        return [k["kernel"] for k in self.kernels if k["origin"] == "synthesized"]

    @property
    def predicted_totals(self) -> Dict[str, int]:
        planned = sum(p["planned_entries"] for p in self.predicted.values())
        broadcast = sum(p["broadcast_entries"] for p in self.predicted.values())
        return {
            "planned_entries": planned,
            "broadcast_entries": broadcast,
            "planned_bytes": planned * VALUE_BYTES,
            "broadcast_bytes": broadcast * VALUE_BYTES,
        }

    def describe(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "num_workers": self.num_workers,
            "kernels": self.kernels,
            "scopes": dict(self.scopes),
            "plan_active": self.plan_active,
            "plan_reason": self.plan_reason,
            "predicted": self.predicted,
            "predicted_totals": self.predicted_totals,
            "synthesized_kernels": self.synthesized_kernels,
            "diagnostics": list(self.diagnostics),
        }


def _plan_graph(app: str):
    from repro.analysis.staticpass.lint import _lint_graph

    return _lint_graph(app)


def build_plan(app: str, num_workers: int = 4, graph=None) -> AppPlan:
    """Run ``app`` under the static kernel compiler and assemble its plan
    artifact."""
    from repro.analysis.staticpass.program import capture_program
    from repro.core.config import use_config
    from repro.suite import APPS, _FLASH_VARIANTS

    if app not in APPS:
        raise ValueError(f"unknown app {app!r}; expected one of {APPS}")
    if graph is None:
        graph = _plan_graph(app)
    with use_config(backend="vectorized"), \
            capture_program() as prog, capture_plan() as cap:
        for variant in _FLASH_VARIANTS[app]:
            variant(graph, num_workers)

    decisions = cap.merged_kernels()
    comm = cap.merged_comm_plan()
    kernels: List[Dict[str, Any]] = []
    for report in prog.reports:
        label = report.label or "-"
        key = f"{report.kind}:{label}"
        decision = decisions.get(key, {})
        origin = decision.get("origin")
        dispatched = bool(decision.get("dispatched"))
        if dispatched and origin == "synthesized":
            dispatch = "vectorized(synthesized)"
        elif dispatched:
            dispatch = "vectorized(hand)"
        else:
            dispatch = "interp"
        kernels.append({
            "kernel": key,
            "kind": report.kind,
            "label": label,
            "complete": report.classification.complete,
            "critical": sorted(report.classification.critical),
            "origin": origin,
            "dispatch": dispatch,
            # why synthesis gave no spec: the interpreted kernels' and
            # the hand specs' reason
            "reason": (decision.get("reason")
                       if dispatch != "vectorized(synthesized)" else None),
        })
    kernels.sort(key=lambda k: k["kernel"])

    plan = AppPlan(
        app=app,
        num_workers=num_workers,
        kernels=kernels,
        scopes={p: comm.scopes[p] for p in sorted(comm.scopes)},
        plan_active=comm.active,
        plan_reason=comm.reason,
        diagnostics=list(prog.diagnostics),
    )

    partition = cap.partition()
    if partition is not None:
        counts = partition.neighbor_mirror_counts()
        n = len(counts)
        neighbor_entries = int(counts.sum())
        broadcast_entries = n * (partition.num_partitions - 1)
        for prop, scope in plan.scopes.items():
            planned = (
                neighbor_entries
                if (scope == "neighbor" and plan.plan_active)
                else broadcast_entries
            )
            plan.predicted[prop] = {
                "scope": scope if plan.plan_active else "broadcast",
                "planned_entries": planned,
                "broadcast_entries": broadcast_entries,
                "planned_bytes": planned * VALUE_BYTES,
                "broadcast_bytes": broadcast_entries * VALUE_BYTES,
            }
    return plan


def render_plan(plan: AppPlan) -> str:
    """Human-readable transcript of one plan (the ``repro plan``
    default output)."""
    lines: List[str] = []
    lines.append(f"plan for {plan.app} ({plan.num_workers} workers)")
    lines.append("")
    lines.append("kernels:")
    width = max((len(k["kernel"]) for k in plan.kernels), default=0)
    for k in plan.kernels:
        critical = ",".join(k["critical"]) or "-"
        status = "" if k["complete"] else "  [analysis incomplete]"
        reason = f" reason={k['reason']}" if k["reason"] else ""
        lines.append(
            f"  {k['kernel']:<{width}}  critical={critical:<12} "
            f"dispatch={k['dispatch']}{reason}{status}"
        )
    lines.append("")
    if plan.plan_active:
        lines.append("communication plan: active")
    else:
        lines.append(f"communication plan: inactive ({plan.plan_reason})")
    if plan.scopes:
        lines.append("  property scopes (predicted sync entries per full-column update):")
        for prop, scope in plan.scopes.items():
            pred = plan.predicted.get(prop)
            if pred is None:
                lines.append(f"    {prop}: {scope}")
                continue
            saved = pred["broadcast_entries"] - pred["planned_entries"]
            pct = (
                100.0 * saved / pred["broadcast_entries"]
                if pred["broadcast_entries"]
                else 0.0
            )
            lines.append(
                f"    {prop}: {scope} — {pred['planned_entries']} vs "
                f"{pred['broadcast_entries']} broadcast (-{pct:.1f}%)"
            )
    totals = plan.predicted_totals
    if totals["broadcast_entries"]:
        saved = totals["broadcast_entries"] - totals["planned_entries"]
        pct = 100.0 * saved / totals["broadcast_entries"]
        lines.append(
            f"  total: {totals['planned_bytes']} planned bytes vs "
            f"{totals['broadcast_bytes']} broadcast (-{pct:.1f}%)"
        )
    synth = plan.synthesized_kernels
    lines.append("")
    lines.append(
        f"synthesized specs: {len(synth)}"
        + (f" ({', '.join(synth)})" if synth else "")
    )
    if plan.diagnostics:
        lines.append("diagnostics:")
        for diag in plan.diagnostics:
            lines.append(f"  - {diag}")
    return "\n".join(lines)
