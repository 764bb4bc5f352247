"""Cross-validation of synthesized vs hand-written specs.

The compiler's counterpart of the static/trace cross-check: run an
application normally (hand-written specs win where they exist), then
again under ``use_config(force_synthesis=True)`` (synthesized specs
replace hand ones wherever synthesis succeeds), and require the two
runs to agree **bit-identically** — final property values and every
charged per-superstep metric (worker ops, reduce/sync message and value
counts, frontier sizes).  Any disagreement means a synthesized kernel
diverges from the hand spec it would replace, which the synthesizer's
soundness rules promise cannot happen.  A hand spec that survives the
forced run is reported with the synthesizer's refusal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.analysis.compile.plan import capture_plan

#: SuperstepRecord fields that must agree between the two runs — every
#: charged quantity the cost model reports.
_RECORD_FIELDS = (
    "index",
    "kind",
    "label",
    "worker_ops",
    "reduce_messages",
    "reduce_values",
    "sync_messages",
    "sync_values",
    "frontier_in",
    "frontier_out",
)


def _signature(record) -> Tuple:
    out = []
    for name in _RECORD_FIELDS:
        value = getattr(record, name)
        if isinstance(value, list):
            value = tuple(value)
        out.append(value)
    return tuple(out)


@dataclass
class VariantCheck:
    """Comparison of one FLASH variant's two runs."""

    variant: str
    #: kernels whose dispatch origin differed between the runs — i.e.
    #: the synthesized specs this check actually exercised
    swapped: List[str] = field(default_factory=list)
    #: kernel -> why synthesis refused it, for the hand specs the forced
    #: run still dispatched
    kept: Dict[str, str] = field(default_factory=dict)
    values_match: bool = True
    supersteps_match: bool = True
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.values_match and self.supersteps_match


@dataclass
class CrossCheckResult:
    app: str
    variants: List[VariantCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.variants)

    @property
    def swapped(self) -> List[str]:
        seen: Dict[str, None] = {}
        for variant in self.variants:
            for kernel in variant.swapped:
                seen.setdefault(kernel)
        return list(seen)

    @property
    def kept(self) -> Dict[str, str]:
        return {k: reason for v in self.variants for k, reason in v.kept.items()}

    def describe(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "ok": self.ok,
            "swapped": self.swapped,
            "kept": self.kept,
            "variants": [
                {
                    "variant": v.variant,
                    "ok": v.ok,
                    "swapped": v.swapped,
                    "values_match": v.values_match,
                    "supersteps_match": v.supersteps_match,
                    "mismatches": v.mismatches,
                }
                for v in self.variants
            ],
        }


def _run_variant(variant, graph, num_workers: int, forced: bool):
    """One instrumented run: returns (values, superstep signatures,
    merged kernel-plan entries)."""
    from repro.core.config import use_config

    with use_config(backend="vectorized", force_synthesis=forced), \
            capture_plan() as cap:
        result = variant(graph, num_workers)
    records = [_signature(r) for r in result.engine.metrics.records]
    return result.values, records, cap.merged_kernels()


def cross_validate(
    app: str, num_workers: int = 4, graph=None
) -> CrossCheckResult:
    """Run every FLASH variant of ``app`` twice — hand specs vs forced
    synthesis — and compare values and charged metrics bit-identically."""
    from repro.analysis.compile.plan import _plan_graph
    from repro.suite import APPS, _FLASH_VARIANTS

    if app not in APPS:
        raise ValueError(f"unknown app {app!r}; expected one of {APPS}")
    if graph is None:
        graph = _plan_graph(app)

    result = CrossCheckResult(app=app)
    for i, variant in enumerate(_FLASH_VARIANTS[app]):
        name = getattr(variant, "__name__", None)
        if not name or name == "<lambda>":
            name = f"{app}[{i}]"
        check = VariantCheck(variant=name)
        base_vals, base_recs, base_plan = _run_variant(
            variant, graph, num_workers, forced=False
        )
        forced_vals, forced_recs, forced_plan = _run_variant(
            variant, graph, num_workers, forced=True
        )
        for key in sorted(set(base_plan) | set(forced_plan)):
            a = (base_plan.get(key) or {}).get("origin")
            b = (forced_plan.get(key) or {}).get("origin")
            if a != b:
                check.swapped.append(f"{key} ({a or 'interp'} -> {b or 'interp'})")
            elif b == "hand" and forced_plan[key]["dispatched"]:
                check.kept[key] = forced_plan[key]["reason"]

        if base_vals != forced_vals:
            check.values_match = False
            diffs = [
                idx
                for idx, (x, y) in enumerate(zip(base_vals, forced_vals))
                if x != y
            ]
            check.mismatches.append(
                f"values differ at {len(diffs)} vertices (first: {diffs[:5]})"
            )
        if len(base_recs) != len(forced_recs):
            check.supersteps_match = False
            check.mismatches.append(
                f"superstep count differs: {len(base_recs)} vs {len(forced_recs)}"
            )
        else:
            for idx, (a, b) in enumerate(zip(base_recs, forced_recs)):
                if a == b:
                    continue
                check.supersteps_match = False
                fields = [
                    name
                    for name, x, y in zip(_RECORD_FIELDS, a, b)
                    if x != y
                ]
                check.mismatches.append(
                    f"superstep {idx} differs on {', '.join(fields)}"
                )
                if len(check.mismatches) >= 10:
                    check.mismatches.append("...")
                    break
        result.variants.append(check)
    return result
