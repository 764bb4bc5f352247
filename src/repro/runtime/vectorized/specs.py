"""Declarative kernel specs.

A spec is the algorithm author's statement of *what* an EDGEMAP /
VERTEXMAP superstep computes, in a form the vectorized backend can
execute as bulk array operations.  The interpreted callables (``F`` /
``M`` / ``C`` / ``R``) remain the source of truth — the dispatcher runs
them whenever a spec is absent or inapplicable — so a spec is an
optimization hint, never a semantic fork.

EDGEMAP specs
-------------
``EdgeMapSpec(prop, reduce, value, f, cond_unvisited, kind, ...)``
describes the canonical FLASH edge pattern *"each qualifying edge
contributes a value to the target's ``prop``, combined by ``reduce``"*:

* ``value`` — per-edge contribution: a scalar, or a callable receiving an
  edge-batch view (``k.sp(name)`` / ``k.dp(name)`` source/target property
  arrays, ``k.w`` edge weights, ``k.src_out_deg``) returning an array;
* ``reduce`` — ``"min" | "max" | "sum" | "or" | "last"``, matching the R
  callable (``"last"`` keeps the temp of the last qualifying arc in
  adjacency order — the semantics of a first-writer-wins fold whose R
  returns its temp unchanged);
* ``f`` — edge filter: ``None`` (all edges from active sources),
  ``"improve"`` (keep edges whose value beats the target's current
  ``prop`` under the reduce order — CC/SSSP relaxation), or a callable
  returning a boolean mask;
* ``cond_unvisited`` — when set, the C condition is
  ``target.prop == sentinel`` (BFS-style write-once visit) on the
  committed column; in dense (pull) mode the written value must differ
  from the sentinel, since the scan stops after the first application;
* ``cond`` — a general C condition: a callable receiving a vertex-batch
  view of the candidate *targets* and returning a boolean mask.  Mutually
  exclusive with ``cond_unvisited``.  In dense (pull) mode the condition
  must not read any property the spec writes (the interpreter re-checks
  C against the live working view mid-scan; dispatch is only sound when
  the mask is scan-invariant) — specs that cannot promise this set
  ``only_mode="sparse"``;
* ``only_mode`` — restrict dispatch to one traversal direction
  (``"sparse"`` / ``"dense"``); ``None`` allows both;
* ``kind="gather"`` — instead of reducing scalars, append each edge's
  ``value`` to the target's list-valued ``prop`` (LPA gossip).  Dense
  (pull) mode only.

Weighted specs (``value`` reading ``k.w``) assume the graph has no
parallel arcs between the same (src, dst) pair with different weights —
true for every generator in :mod:`repro.graph.generators`, which
dedupes.

VERTEXMAP specs
---------------
``VertexMapSpec(map, filter, ...)`` mirrors the (F, M) pair: ``filter``
returns a boolean mask over the subset, ``map`` returns
``{prop: column}`` for the passing vertices (columns may be scalars,
arrays, or lists for object-valued properties).  Both receive a
vertex-batch view (``k.p(name)`` property arrays, ``k.raw(name)`` the
live object column, ``k.ids``, ``k.deg``/``k.out_deg``/``k.in_deg``,
``k.n``).

``reads`` / ``raw_reads`` list the properties a spec touches; dispatch
requires every ``reads`` entry to still be an array column (``raw_reads``
only need to exist).

Declared access sets
--------------------
``writes`` declares the properties a spec's superstep may modify: for an
``EdgeMapSpec`` it defaults to ``(prop,)`` (the reduced property is the
only thing edge kernels write); a ``VertexMapSpec``'s ``map`` should
declare the keys of the columns it returns.  Together with ``reads`` /
``raw_reads`` these form the spec's *declared access set*, which the
engine cross-checks against the static analyzer's access sets for the
interpreted callables (:mod:`repro.analysis.staticpass.speccheck`) —
a spec whose declaration misses an access the callables perform earns
an engine diagnostic.  ``declared_access()`` exposes the normalized
sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple


class _NotSet:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NOT_SET"


NOT_SET = _NotSet()

REDUCERS = ("min", "max", "sum", "or", "last")


@dataclass(frozen=True)
class EdgeMapSpec:
    """Vectorizable description of one EDGEMAP superstep."""

    prop: str
    reduce: str = "min"
    value: Any = None  # scalar or callable(edge_view) -> array
    f: Any = None  # None | "improve" | callable(edge_view) -> bool mask
    cond_unvisited: Any = NOT_SET
    cond: Optional[Callable] = None  # callable(target_vertex_view) -> bool mask
    only_mode: Optional[str] = None  # None | "sparse" | "dense"
    kind: str = "reduce"  # "reduce" | "gather"
    reads: Tuple[str, ...] = ()
    raw_reads: Tuple[str, ...] = ()
    uses_weights: bool = False
    #: Properties this superstep may write; empty means "just ``prop``"
    #: (the reduced property is all an edge kernel ever writes).
    writes: Tuple[str, ...] = ()

    def declared_access(self) -> Dict[str, Tuple[str, ...]]:
        """The normalized declared access sets (reads include the
        reduced property — the kernels read it for improve filters,
        unvisited conditions and the reduce itself)."""
        writes = self.writes or (self.prop,)
        reads = tuple(dict.fromkeys(self.reads + self.raw_reads + (self.prop,)))
        return {"reads": reads, "writes": writes}

    def __post_init__(self) -> None:
        if self.kind not in ("reduce", "gather"):
            raise ValueError(f"unknown EdgeMapSpec kind {self.kind!r}")
        if self.kind == "reduce" and self.reduce not in REDUCERS:
            raise ValueError(f"unknown reduce {self.reduce!r}")
        if self.f == "improve" and self.reduce not in ("min", "max"):
            raise ValueError("f='improve' requires an ordered reduce (min/max)")
        if self.value is None and self.kind == "reduce":
            raise ValueError("EdgeMapSpec needs a value (scalar or callable)")
        if self.cond is not None and self.cond_unvisited is not NOT_SET:
            raise ValueError("cond and cond_unvisited are mutually exclusive")
        if self.only_mode not in (None, "sparse", "dense"):
            raise ValueError(f"unknown only_mode {self.only_mode!r}")


@dataclass(frozen=True)
class VertexMapSpec:
    """Vectorizable description of one VERTEXMAP superstep."""

    map: Optional[Callable] = None  # callable(vertex_view) -> {prop: column}
    filter: Optional[Callable] = None  # callable(vertex_view) -> bool mask
    reads: Tuple[str, ...] = ()
    raw_reads: Tuple[str, ...] = ()
    #: Properties ``map`` may write (the keys of the columns it
    #: returns); empty on legacy specs, which skips the analyzer
    #: cross-check.
    writes: Tuple[str, ...] = ()

    def declared_access(self) -> Dict[str, Tuple[str, ...]]:
        reads = tuple(dict.fromkeys(self.reads + self.raw_reads))
        return {"reads": reads, "writes": self.writes}
