"""The columnar EDGEMAP / VERTEXMAP kernels — written once, as folds
over the arc batches an *arc source* hands out
(:mod:`repro.runtime.vectorized.arcs`: the resident CSR for
``backend="vectorized"``, memory-mapped block shards for
``backend="oocore"``).  Nothing here knows which source it runs on.

Each kernel reproduces the interpreted kernel's *observable behavior*
exactly — the returned frontier, the committed property values, and the
full accounting (per-worker ops, reduce/sync messages and values) — so a
run is bitwise comparable across backends.  The correspondences
(:class:`ColumnarKernels` method ↔ interpreted loop in
:mod:`repro.core.interp`):

``vertex_map``        ↔ ``run_vertex_map``
``edge_map_sparse``   ↔ ``run_edge_map_sparse`` (push)
``edge_map_dense``    ↔ ``run_edge_map_dense``  (pull)

Accounting equivalences worth spelling out (derived from the
interpreted kernels; the parity test sweeps them).  Every op charge is
degree- and frontier-determined, computed from resident O(|V|) arrays —
never from which batches arrived — which is what lets a block source
skip blocks with no active source:

* sparse: one op per enumerated out-edge of the frontier charged to the
  source's owner (the C evaluation), one more per M-passing edge, and
  one per temp charged to the target's owner (the R fold); the reduce
  round charges one message per *remote contributing partition* per
  touched target.
* dense, no C: every candidate target scans its full in-neighbor list —
  one op per in-arc charged to the target's owner.
* dense with a scan-invariant general C (``spec.cond``): a C-passing
  target scans its full in-list; a C-failing target with in-degree > 0
  costs exactly 1 op (charge, C fails, break).
* dense with a write-once C (``cond_unvisited``): an already-visited
  target with in-degree > 0 costs exactly 1 op (charge, C fails,
  break); an unvisited target whose first active in-neighbor sits at
  position ``p`` of its in-list costs ``min(p + 2, indeg)`` (scan to
  ``p``, apply, one more charge before C breaks); an unvisited target
  with no active in-neighbor costs its full in-degree.
* floating-point reductions: ``sum`` is applied with ``np.add.at`` on a
  snapshot-copy accumulator in arrival order — by the arc sources'
  order contract each target's arcs arrive in ascending source order,
  the same sequential left fold the interpreted scan performs, so float
  results are bit-identical, not merely close.
"""

from __future__ import annotations

from contextlib import closing
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from repro.core.edgeset import BaseEdges
from repro.core.primitives import ctrue
from repro.core.subset import VertexSubset
from repro.errors import FlashUsageError
from repro.runtime.vectorized.arcs import EdgeBatch, unit_weights
from repro.runtime.vectorized.specs import NOT_SET, EdgeMapSpec, VertexMapSpec

_UFUNCS = {
    "min": np.minimum,
    "max": np.maximum,
    "sum": np.add,
    "or": np.logical_or,
}

#: ``f="improve"``: a value beats the target's current one under the
#: (ordered) reduce.
_BEATS = {"min": np.less, "max": np.greater}

_MAXI = np.iinfo(np.int64).max


class ColumnarContext:
    """O(|V|)-resident arrays every columnar kernel shares.  Nothing
    O(|arcs|) lives here: arcs exist only inside the arc source."""

    def __init__(self, engine):
        g = engine.graph
        part = engine.flashware.partition
        self.graph = g
        self.n = g.num_vertices
        self.P = part.num_partitions
        self.owners = part.owners()
        self.out_degrees = np.asarray(g.out_degrees(), dtype=np.int64)
        self.in_degrees = np.asarray(g.in_degrees(), dtype=np.int64)
        self.in_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.in_degrees, out=self.in_indptr[1:])


class VertexBatch:
    """A batch of vertices (the subset a VERTEXMAP runs over)."""

    __slots__ = ("_ctx", "_state", "ids")

    def __init__(self, ctx, state, ids):
        self._ctx = ctx
        self._state = state
        self.ids = ids

    def p(self, name: str) -> np.ndarray:
        """Property values at the batch's vertices."""
        return self._state.array(name)[self.ids]

    def raw(self, name: str):
        """The live (whole-graph) column — object columns included."""
        return self._state.column(name)

    @property
    def deg(self) -> np.ndarray:
        return self._ctx.graph.degrees()[self.ids]

    @property
    def out_deg(self) -> np.ndarray:
        return self._ctx.out_degrees[self.ids]

    @property
    def in_deg(self) -> np.ndarray:
        return self._ctx.in_degrees[self.ids]

    @property
    def n(self) -> int:
        return self._ctx.n

    def __len__(self) -> int:
        return len(self.ids)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _always_true(fn) -> bool:
    return fn is None or fn is ctrue


def _reads_available(state, spec) -> bool:
    """Every ``reads`` entry is still an array column and every
    ``raw_reads`` entry still exists."""
    return all(state.array(name) is not None for name in spec.reads) and all(
        state.has_property(name) for name in spec.raw_reads
    )


def _add_ops(rec, per_worker: np.ndarray) -> None:
    ops = rec.worker_ops
    for w, count in enumerate(per_worker[: len(ops)]):
        if count:
            ops[w] += int(count)


def _eval_value(spec: EdgeMapSpec, batch: EdgeBatch) -> np.ndarray:
    if callable(spec.value):
        vals = np.asarray(spec.value(batch))
    else:
        dtype = np.bool_ if spec.reduce == "or" else None
        vals = np.full(len(batch), spec.value, dtype=dtype)
    if len(vals) != len(batch):
        raise FlashUsageError("spec value returned a wrong-length array")
    return vals


def _filtered(spec: EdgeMapSpec, batch: EdgeBatch) -> EdgeBatch:
    """``batch`` restricted to the arcs a callable ``spec.f`` keeps."""
    if callable(spec.f):
        return batch.take(np.asarray(spec.f(batch), dtype=bool))
    return batch


def _target_starts(dst: np.ndarray) -> np.ndarray:
    """Index of each target's first arc in a non-empty, non-decreasing
    ``dst`` (a ``pull`` batch, or a sorted row of kept push arcs)."""
    return np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))


def _cat_columns(rows: list) -> tuple:
    """Column-wise concatenation of a list of equal-length array tuples
    (the common single-tuple case copies nothing)."""
    if len(rows) == 1:
        return rows[0]
    return tuple(np.concatenate(column) for column in zip(*rows))


class ColumnarKernels:
    """The one columnar kernel set, bound to the arc source its backend
    reads arcs from.  ``name`` is the label charged to
    ``Metrics.backend_choices`` and the superstep span.  Like the
    non-columnar runners, every call takes the engine (holding it here
    would tie engine and kernels into a reference cycle that keeps a
    closed engine's partition and columns alive until a GC pass)."""

    def __init__(self, name: str, arcs):
        self.name = name
        self.arcs = arcs
        self._ctx: Optional[ColumnarContext] = None

    def _context(self, engine) -> ColumnarContext:
        if self._ctx is None:
            self._ctx = ColumnarContext(engine)
        return self._ctx

    def close(self) -> None:
        self.arcs.close()

    # ------------------------------------------------------------------
    # Dispatch predicates
    # ------------------------------------------------------------------
    @staticmethod
    def supports_vertex_map(state, spec: VertexMapSpec, F, M) -> bool:
        if (M is None) != (spec.map is None):
            return False
        if spec.filter is None and not _always_true(F):
            return False
        return _reads_available(state, spec)

    @staticmethod
    def supports_edge_map(state, edges, spec: EdgeMapSpec, mode: str, F, C) -> bool:
        if type(edges) is not BaseEdges:
            return False
        if spec.only_mode is not None and mode != spec.only_mode:
            return False
        if spec.f is None and not _always_true(F):
            return False
        if (
            spec.cond_unvisited is NOT_SET
            and spec.cond is None
            and not _always_true(C)
        ):
            return False
        if not (_reads_available(state, spec) and state.has_property(spec.prop)):
            return False
        if spec.kind == "gather":
            # gather appends into a list-valued column; pull mode only
            return mode == "dense" and state.array(spec.prop) is None
        return state.array(spec.prop) is not None

    # ------------------------------------------------------------------
    # VERTEXMAP
    # ------------------------------------------------------------------
    def vertex_map(self, engine, subset, F, M, spec: VertexMapSpec) -> VertexSubset:
        ctx = self._context(engine)
        fw = engine.flashware
        state = fw.state
        rec = fw._current
        if fw.tracer.enabled:
            fw.annotate_span(kernel="vertex_map.batch")
        ids = subset.as_array()

        if F is not None:
            _add_ops(rec, np.bincount(ctx.owners[ids], minlength=ctx.P))
        if spec.filter is not None:
            mask = np.asarray(spec.filter(VertexBatch(ctx, state, ids)), dtype=bool)
            passing = ids[mask]
        else:
            passing = ids

        updates = {}
        if M is not None:
            _add_ops(rec, np.bincount(ctx.owners[passing], minlength=ctx.P))
            raw = spec.map(VertexBatch(ctx, state, passing))
            for name, column in raw.items():
                if not isinstance(column, list):
                    column = np.asarray(column)
                    if column.ndim == 0:
                        column = np.full(len(passing), column)
                if len(column) != len(passing):
                    raise FlashUsageError("spec map returned a wrong-length column")
                updates[name] = column

        fw.barrier(passing, updates, frontier_out=int(len(passing)))
        return VertexSubset(engine, passing)

    # ------------------------------------------------------------------
    # EDGEMAP — push (sparse)
    # ------------------------------------------------------------------
    def edge_map_sparse(self, engine, subset, spec: EdgeMapSpec) -> VertexSubset:
        ctx = self._context(engine)
        fw = engine.flashware
        state = fw.state
        rec = fw._current
        if fw.tracer.enabled:
            fw.annotate_span(kernel=f"edge_map.scatter[{spec.kind}:{spec.reduce}]")
        U = subset.as_array()
        owners, P = ctx.owners, ctx.P
        col = state.array(spec.prop)

        # one op per enumerated out-edge (the C evaluation), charged to
        # the source's owner — with the per-batch ops below, after the loop
        ops = np.bincount(owners[U], weights=ctx.out_degrees[U], minlength=P)
        ops = ops.astype(np.int64)

        # Accumulate compactly, one destination row at a time: memory is
        # O(active arcs of a row), never a |V|-wide accumulator.
        rows = []  # (targets, folded values, (target, partition) pair codes)
        with closing(self.arcs.push(ctx, state, U)) as batches:
            for _row, row_batches in groupby(batches, key=attrgetter("row")):
                kept = []
                for batch in row_batches:
                    if spec.cond_unvisited is not NOT_SET:
                        batch = batch.take(col[batch.dst] == spec.cond_unvisited)
                    elif spec.cond is not None:
                        # general C: evaluated per arc against the
                        # committed snapshot of the target, exactly like
                        # the interpreted per-arc WorkingView
                        batch = batch.take(np.asarray(
                            spec.cond(VertexBatch(ctx, state, batch.dst)), dtype=bool
                        ))
                    vals = _eval_value(spec, batch)
                    srcs, dsts = batch.src, batch.dst
                    if spec.f == "improve":
                        keep = _BEATS[spec.reduce](vals, col[dsts])
                    elif callable(spec.f):
                        keep = np.asarray(spec.f(batch), dtype=bool)
                    else:
                        keep = None
                    if keep is not None:
                        srcs, dsts, vals = srcs[keep], dsts[keep], vals[keep]
                    # one op per M-passing edge (source owner), one per
                    # temp folded by R (target owner)
                    src_parts = owners[srcs]
                    ops += np.bincount(src_parts, minlength=P)
                    ops += np.bincount(owners[dsts], minlength=P)
                    if len(dsts):
                        kept.append((dsts, vals, src_parts))
                if kept:
                    rows.append(_fold_row(kept, col, spec.reduce, P))
        _add_ops(rec, ops)

        if rows:
            # rows cover disjoint ascending target ranges, so per-row
            # results concatenate to the globally sorted ones
            out_ids, acc, pairs = _cat_columns(rows)
        else:
            out_ids = pairs = np.empty(0, dtype=np.int64)
            acc = col[out_ids]

        fw.barrier(
            out_ids,
            {spec.prop: acc},
            reduce_pairs=(pairs // P, pairs % P),
            frontier_out=int(len(out_ids)),
        )
        return VertexSubset(engine, out_ids)

    # ------------------------------------------------------------------
    # EDGEMAP — pull (dense)
    # ------------------------------------------------------------------
    def edge_map_dense(self, engine, subset, spec: EdgeMapSpec) -> VertexSubset:
        ctx = self._context(engine)
        fw = engine.flashware
        state = fw.state
        if fw.tracer.enabled:
            fw.annotate_span(kernel=f"edge_map.segment[{spec.kind}:{spec.reduce}]")
        U = subset.as_array()

        # the per-target C, as a mask the source applies while selecting
        eligible = None
        if spec.kind == "gather":
            fold = _dense_gather
        elif spec.cond_unvisited is not NOT_SET:
            fold = _dense_unvisited
            eligible = state.array(spec.prop) == spec.cond_unvisited
        else:
            fold = _dense_full
            if spec.cond is not None:
                # scan-invariant general C (dispatch requires the
                # condition reads no written property): one mask over
                # all targets
                eligible = np.asarray(
                    spec.cond(
                        VertexBatch(ctx, state, np.arange(ctx.n, dtype=np.int64))
                    ),
                    dtype=bool,
                )
        with closing(self.arcs.pull(ctx, state, U, eligible)) as batches:
            applied, column, t_ops = fold(ctx, state, spec, batches, eligible)

        per_worker = np.bincount(ctx.owners, weights=t_ops, minlength=ctx.P)
        _add_ops(fw._current, per_worker.astype(np.int64))
        fw.barrier(
            applied, {spec.prop: column}, frontier_out=int(len(applied))
        )
        return VertexSubset(engine, applied)


def _dense_full(ctx, state, spec, batches: Iterable[EdgeBatch], cmask):
    """Pull with C = ctrue (or a scan-invariant general C): every
    C-passing target scans its whole in-list; a C-failing target with
    in-degree > 0 costs exactly one op (charge, C fails, break)."""
    col = state.array(spec.prop)
    acc = col
    touched = np.zeros(ctx.n, dtype=bool)
    for batch in batches:
        batch = _filtered(spec, batch)
        if len(batch) == 0:
            continue
        vals = _eval_value(spec, batch)
        if acc is col:
            acc = col.astype(np.result_type(col.dtype, vals.dtype), copy=True)
        dsts = batch.dst
        if spec.reduce == "last":
            # a batch is target-major ascending and later batches
            # hold later sources, so the surviving write per target
            # is the interpreted scan's final M
            starts = _target_starts(dsts)
            acc[dsts[starts]] = vals[np.append(starts[1:], len(dsts)) - 1]
        else:
            # arrival order == the interpreted per-target sequential fold
            _UFUNCS[spec.reduce].at(acc, dsts, vals)
        touched[dsts] = True

    applied = np.flatnonzero(touched)
    if spec.f == "improve":
        applied = applied[_BEATS[spec.reduce](acc[applied], col[applied])]

    if cmask is None:
        # full scan: one op per in-arc, charged to the target's owner
        t_ops = ctx.in_degrees
    else:
        t_ops = np.where(cmask, ctx.in_degrees, np.minimum(ctx.in_degrees, 1))
    return applied, acc[applied], t_ops

def _dense_unvisited(ctx, state, spec, batches: Iterable[EdgeBatch], eligible_t):
    """Pull with a write-once C (``target.prop == sentinel``): the
    scan stops right after the first applying source (BFS Algorithm
    2), so each unvisited target takes the value of its first active
    in-arc in global scan order — a running O(|V|) argmin of ``pos``
    across batches."""
    first = np.full(ctx.n, _MAXI, dtype=np.int64)
    first_src = np.zeros(ctx.n, dtype=np.int64)
    first_w = np.ones(ctx.n, dtype=np.float64) if ctx.graph.weighted else None

    for batch in batches:
        batch = _filtered(spec, batch)
        if len(batch) == 0:
            continue
        # pos ascends within a target, so a target's first arc in the
        # batch is its batch minimum
        heads = batch.take(_target_starts(batch.dst))
        pos = heads.pos
        better = pos < first[heads.dst]
        upd = heads.dst[better]
        first[upd] = pos[better]
        first_src[upd] = heads.src[better]
        if first_w is not None:
            first_w[upd] = heads.w[better]

    applied = np.flatnonzero(first < _MAXI)
    sel = first[applied]
    chosen = EdgeBatch(
        ctx, state, first_src[applied], applied, applied,
        unit_weights if first_w is None else first_w.__getitem__,
    )
    vals = _eval_value(spec, chosen)

    # ops per target (see module docstring for the derivation)
    indeg = ctx.in_degrees
    t_ops = np.zeros(ctx.n, dtype=np.int64)
    visited = ~eligible_t & (indeg > 0)
    t_ops[visited] = 1
    t_ops[eligible_t] = indeg[eligible_t]
    t_ops[applied] = np.minimum(sel - ctx.in_indptr[applied] + 2, indeg[applied])
    return applied, vals, t_ops

def _dense_gather(ctx, state, spec, batches: Iterable[EdgeBatch], _eligible):
    """Pull that appends each active edge's value to the target's
    list-valued property (LPA gossip)."""
    bufs: dict = {}
    for batch in batches:
        batch = _filtered(spec, batch)
        if len(batch) == 0:
            continue
        vals = _eval_value(spec, batch).tolist()
        # per-target slices arrive in fold order (target-major within
        # a batch, ascending source across batches) — the interpreted
        # append order
        dsts = batch.dst
        starts = _target_starts(dsts)
        bounds = np.append(starts[1:], len(dsts))
        for t, s, e in zip(dsts[starts].tolist(), starts.tolist(), bounds.tolist()):
            bufs.setdefault(t, []).extend(vals[s:e])

    touched = np.asarray(sorted(bufs), dtype=np.int64)
    col = state.column(spec.prop)
    new_lists = []
    for t in touched.tolist():
        base = col[t]
        new_lists.append(list(base) + bufs[t] if base else bufs[t])
    return touched, new_lists, ctx.in_degrees


def _fold_row(kept, col: np.ndarray, reduce: str, P: int):
    """Fold one destination row's kept ``(dst, val, src partition)``
    triples into ``(targets, values, pair codes)``: one stable sort by
    target keeps each target's temps in arrival (ascending-source) order
    — the interpreted fold order — then one compact ``ufunc.at``."""
    dsts, vals, src_parts = _cat_columns(kept)
    order = np.argsort(dsts, kind="stable")
    dsts, vals, src_parts = dsts[order], vals[order], src_parts[order]

    starts = _target_starts(dsts)
    out_ids = dsts[starts]
    acc = col[out_ids].astype(np.result_type(col.dtype, vals.dtype), copy=True)
    if reduce == "last":
        # every touched target keeps the temp of its last arc in fold
        # order — the result of an R that returns its temp unchanged
        acc[:] = vals[np.append(starts[1:], len(dsts)) - 1]
    else:
        _UFUNCS[reduce].at(acc, np.searchsorted(out_ids, dsts), vals)
    # distinct (target, contributing partition) pairs for the reduce round
    return out_ids, acc, np.unique(dsts * P + src_parts)
