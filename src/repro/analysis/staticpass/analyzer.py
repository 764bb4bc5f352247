"""Access sets of FLASH user functions, folded from the kernel front end.

The code generator's *static* analysis (paper §IV-B): every vertex
property access a user function may perform on **any** control-flow
path, attributed to the *role* each vertex argument plays (``source`` /
``target`` / ``self``).  The walk is the front end's one lowering
(:mod:`repro.analysis.compile.frontend`), which the spec synthesizer
reads too; a :class:`FunctionAccess` is the fold of that lowering's
statements and ``Opaque`` facts, and a kernel's slots combine into a
:class:`KernelAccess` — the unit Table II classification
(:mod:`repro.analysis.staticpass.tableii`), spec validation and the
:mod:`repro.analysis.staticpass.lint` rules operate on.

This is a *may*-analysis, unlike the one-path sample tracer in
:mod:`repro.core.analysis`.  Over-approximation is safe — a property
synced without need costs messages, a property missed costs
correctness.  Whatever the front end cannot resolve (a dynamic
``getattr`` name, a role escaping into an unresolvable callee, a
function with no recoverable source) flags the role *unknown*, and the
engine keeps the sample tracer as that kernel's safety net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.analysis.compile import frontend

#: Kernel kinds the classification distinguishes (Table II rows).
KERNEL_KINDS = ("vertex_map", "edge_map_dense", "edge_map_sparse")

#: One (role, property) access.
Access = Tuple[str, str]


@dataclass
class FunctionAccess:
    """All property accesses one user function may perform."""

    name: str = "<unknown>"
    filename: str = ""
    lineno: int = 0
    #: Parameter names bound to vertex roles, in order.
    param_names: Tuple[str, ...] = ()
    #: (role, property) pairs that may be read / written on any path.
    reads: Set[Access] = field(default_factory=set)
    writes: Set[Access] = field(default_factory=set)
    #: Properties read / written through ``engine.get(...)`` views —
    #: arbitrary-vertex reads, critical in every kernel kind (a write is
    #: a model violation: the view is read-only).
    remote_reads: Set[str] = field(default_factory=set)
    remote_writes: Set[str] = field(default_factory=set)
    #: Roles whose accesses could not be fully resolved; any entry makes
    #: the kernel's classification incomplete.
    unknown_roles: Set[str] = field(default_factory=set)
    #: True when no source/AST was recoverable at all.
    unanalyzable: bool = False
    #: Captured names the function mutates (``global`` / ``nonlocal``,
    #: in-place mutation).
    mutated_globals: Set[str] = field(default_factory=set)
    #: Index of the bare role parameter a ``return <param>`` returns
    #: (``return t`` in R keeps whichever temp arrives first).
    returns_param: Optional[int] = None
    #: Properties written from a non-commutative operator over two
    #: parameters of the written role (R's are both the target).
    noncomm_writes: Set[str] = field(default_factory=set)

    def role_reads(self, role: str) -> Set[str]:
        return {p for r, p in self.reads if r == role}

    def role_writes(self, role: str) -> Set[str]:
        return {p for r, p in self.writes if r == role}

    @property
    def complete(self) -> bool:
        return not self.unanalyzable and not self.unknown_roles

    @property
    def location(self) -> str:
        if not self.filename:
            return self.name
        return f"{self.name} ({self.filename}:{self.lineno})"


@dataclass
class KernelAccess:
    """The combined access sets of one kernel's F/M/C/R functions."""

    kind: str
    #: Slot name -> FunctionAccess (``None`` for omitted slots).
    slots: Dict[str, Optional[FunctionAccess]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def _union(self, attr: str) -> Set:
        out: Set = set()
        for fa in self.slots.values():
            if fa is not None:
                out |= getattr(fa, attr)
        return out

    @property
    def reads(self) -> Set[Access]:
        return self._union("reads")

    @property
    def writes(self) -> Set[Access]:
        return self._union("writes")

    @property
    def remote_reads(self) -> Set[str]:
        return self._union("remote_reads")

    @property
    def remote_writes(self) -> Set[str]:
        return self._union("remote_writes")

    @property
    def unknown_roles(self) -> Set[str]:
        return self._union("unknown_roles")

    @property
    def complete(self) -> bool:
        """Whether every present slot was fully analyzed — only then is
        the static classification sound on its own."""
        return all(fa is None or fa.complete for fa in self.slots.values())

    @property
    def seen(self) -> Set[str]:
        """Every property the kernel may touch (Table II's input set)."""
        props = {p for _, p in self.reads | self.writes}
        return props | self.remote_reads | self.remote_writes


def clear_caches() -> None:
    """Drop all memoized parses, lowerings and analyses."""
    frontend.clear()


def _access(entry: frontend.Lowered) -> FunctionAccess:
    """The lowering's FunctionAccess.  Lowerings with equal facts
    (closures of one ``def`` differing only in a captured constant)
    share one object, so a program capture sees one kernel."""
    if entry.access is None:
        facts = entry.facts

        def make() -> FunctionAccess:
            role = lambda r: frontend.ACCESS_ROLE.get(r, r)  # noqa: E731
            return FunctionAccess(
                name=entry.name, filename=entry.filename, lineno=entry.lineno,
                param_names=entry.role_params,
                reads={(role(r), p) for r, p in facts.reads},
                writes={(role(r), p) for r, p in facts.writes},
                remote_reads=set(facts.remote_reads),
                remote_writes=set(facts.remote_writes),
                unknown_roles={role(r) for r in facts.unknown_roles},
                unanalyzable=entry.body is None,
                mutated_globals=set(facts.mutated_globals),
                returns_param=facts.returns_param,
                noncomm_writes=set(facts.noncomm_writes),
            )

        key = (entry.code or entry.name, entry.roles, entry.role_params, facts)
        entry.access = frontend.intern(key, make)
    return entry.access


def function_access(fn: Callable, roles: Tuple[Optional[str], ...]) -> FunctionAccess:
    """The :class:`FunctionAccess` of ``fn`` with its leading positional
    parameters bound to ``roles`` (``None`` entries are non-vertex
    parameters: ``bind``-supplied values, prepended ``partial``
    arguments)."""
    return _access(frontend.lower(fn, roles))


def access_of(entry: frontend.KernelEntry) -> KernelAccess:
    """The kernel entry's :class:`KernelAccess` (memoised on it)."""
    if entry.access is None:
        slots = {s: e and _access(e) for s, e in entry.slots.items()}
        key = (entry.kind,) + tuple(id(fa) for fa in slots.values())
        entry.access = frontend.intern(key, lambda: KernelAccess(entry.kind, slots))
    return entry.access


def kernel_access(kind: str, F=None, M=None, C=None, R=None) -> KernelAccess:
    """Analyze one kernel's user-function slots into a :class:`KernelAccess`."""
    return access_of(frontend.kernel(kind, F=F, M=M, C=C, R=R))
