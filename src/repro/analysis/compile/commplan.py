"""Communication planning: static read/write sets -> minimal sync scopes.

The second output of the static kernel compiler.  As kernels register
with the engine, the plan folds each
kernel's Table II classification into a per-property *sync scope*:

* ``"neighbor"`` — every reader of the property reaches it through a
  concrete graph arc (dense kernels read source properties of the
  in-neighbors of owned targets; sparse kernels read/write target
  properties of out-neighbors of owned sources), so mirror deltas only
  need to reach :meth:`Partition.neighbor_mirrors` — which covers both
  arc directions — and the mp executor may *withhold* them from every
  other worker;
* ``"broadcast"`` — some reader reaches the property at arbitrary
  vertices (FLASHWARE ``get`` views, or a virtual edge set whose
  source->target pairs are not graph arcs), so deltas must reach every
  mirror.

Scopes only ever widen (``neighbor`` -> ``broadcast``); a widening bumps
``version`` so the executor can re-ship the full column to workers whose
copies went stale while deltas were withheld.  A kernel whose analysis
is incomplete (``unanalyzable`` slot, escaped role) deactivates the plan
outright — withholding is an optimization that must never act on
unsound information — and the executor falls back to broadcasting
everything, exactly the pre-plan behavior.

Unobserved properties default to ``"broadcast"``: the plan narrows only
what it has proven narrow.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set


class CommunicationPlan:
    """Accumulated per-property sync scopes for one engine's program."""

    def __init__(self) -> None:
        self.scopes: Dict[str, str] = {}
        self.active: bool = True
        self.reason: Optional[str] = None
        #: Bumped on every widening/deactivation; the executor compares
        #: it against the version it last reconciled to know when to
        #: re-ship columns whose deltas were withheld.
        self.version: int = 0
        self.widened: List[Dict[str, str]] = []
        self.kernels: List[Dict[str, Any]] = []
        self._seen: Set[Any] = set()

    # -- observation -----------------------------------------------------
    def observe(self, kind: str, label: str, classification, virtual: bool = False) -> None:
        """Fold one kernel registration into the plan.  ``virtual`` marks
        edge kernels over constructed edge sets (``join`` products,
        function edges) whose endpoints are not graph arcs."""
        key = (
            kind,
            label,
            id(classification.access) if classification is not None else None,
            bool(virtual),
        )
        if key in self._seen:
            return
        self._seen.add(key)
        if classification is None or not classification.complete:
            self.deactivate(f"{label or kind}: incomplete static analysis")
            return
        access = classification.access
        broadcast_props: Set[str] = set(access.remote_reads) | set(access.remote_writes)
        if virtual:
            # workers evaluate virtual-edge kernels against arbitrary
            # vertices *before* the barrier: every property the kernel
            # reads must be fresh everywhere
            broadcast_props |= {p for _role, p in access.reads}
        record = {
            "kind": kind,
            "label": label,
            "critical": sorted(classification.critical),
            "virtual": bool(virtual),
        }
        self.kernels.append(record)
        for prop in classification.critical:
            want = "broadcast" if prop in broadcast_props else "neighbor"
            self._merge(prop, want, label)

    def _merge(self, prop: str, want: str, label: str) -> None:
        have = self.scopes.get(prop)
        if have is None:
            self.scopes[prop] = want
            return
        if have == "neighbor" and want == "broadcast":
            self.scopes[prop] = "broadcast"
            self.version += 1
            self.widened.append({"prop": prop, "by": label})

    def deactivate(self, reason: str) -> None:
        if self.active:
            self.active = False
            self.reason = reason
            self.version += 1

    # -- queries ---------------------------------------------------------
    def scope_of(self, prop: str) -> str:
        """The planned sync scope of ``prop`` (``"broadcast"`` when the
        plan is inactive or the property was never observed)."""
        if not self.active:
            return "broadcast"
        return self.scopes.get(prop, "broadcast")

    def narrow_props(self) -> List[str]:
        """Properties whose deltas the executor may withhold from
        non-neighbor mirrors."""
        if not self.active:
            return []
        return sorted(p for p, s in self.scopes.items() if s == "neighbor")

    def describe(self) -> Dict[str, Any]:
        return {
            "active": self.active,
            "reason": self.reason,
            "version": self.version,
            "scopes": {p: self.scopes[p] for p in sorted(self.scopes)},
            "narrow": self.narrow_props(),
            "widened": list(self.widened),
            "kernels": list(self.kernels),
        }
