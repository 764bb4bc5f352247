"""Validate declared spec access sets against the static analyzer.

Vectorized kernel specs (:mod:`repro.runtime.vectorized.specs`) are
optimization *hints*; the interpreted F/M/C/R callables stay the source
of truth, so every property they may read or write must be covered by
the spec's declared access sets.  A mismatch does not change execution;
it surfaces as an engine diagnostic, once per kernel plan.  Only
*under*-declaration is reported — declared sets are upper bounds the
dispatcher uses for column checks.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.analysis.staticpass.tableii import StaticClassification


def _blame(access, prop: str, attr: str) -> Optional[str]:
    """The slot + ``file:line`` performing the offending access — the
    first slot (in C/F/M/R order) whose ``attr`` set touches ``prop``."""
    for slot in ("C", "F", "M", "R"):
        fa = access.slots.get(slot)
        if fa is None:
            continue
        props = getattr(fa, attr)
        if prop in (props if attr == "remote_reads" else {p for _, p in props}):
            where = f"at {fa.filename}:{fa.lineno}" if fa.filename else f"in {fa.name}"
            return f"{slot} {where}"
    return None


def check_spec(kind: str, spec, classification: StaticClassification) -> List[str]:
    """Compare one kernel's static access sets against the spec passed
    alongside it.  Returns diagnostic strings (empty = consistent), each
    naming the kernel kind and the offending slot's ``file:line``;
    incomplete classifications are skipped (nothing sound to compare)."""
    if not classification.complete:
        return []
    access = classification.access
    static_reads = {p for _, p in access.reads} | access.remote_reads
    static_writes = {p for _, p in access.writes}
    diagnostics: List[str] = []

    declared = spec.declared_access()
    declared_reads: Set[str] = set(declared["reads"])
    declared_writes: Set[str] = set(declared["writes"])
    if kind == "vertex_map" and not declared_writes:
        # Legacy spec without declared writes: nothing to check against
        # (reads alone are dispatch requirements, not a complete access
        # declaration).
        return []

    for prop in sorted(static_writes - declared_writes):
        blame = _blame(access, prop, "writes")
        where = f" (written by {blame})" if blame else ""
        diagnostics.append(
            f"{kind}: user functions write {prop!r}{where} but the spec "
            f"declares writes={sorted(declared_writes)!r}"
        )
    for prop in sorted(static_reads - declared_reads - declared_writes):
        blame = _blame(access, prop, "reads") or _blame(
            access, prop, "remote_reads"
        )
        where = f" (read by {blame})" if blame else ""
        diagnostics.append(
            f"{kind}: user functions read {prop!r}{where} but the spec "
            f"declares reads={sorted(declared_reads)!r}"
        )
    return diagnostics
