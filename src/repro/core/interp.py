"""The interpreted kernels: Algorithms 1, 5 and 6 as the paper's
pseudocode reads, one Python call per vertex / per edge — the only
place in ``src/`` that runs F/M/C/R that way.

These loops are the reference semantics every other executor is held
to (the parity oracle).  ``engine`` is whatever owns the vertices they
are pointed at: the inline ``FlashEngine`` (every superstep the
columnar kernels cannot take) or an mp worker's ``WorkerProxy`` over
its partition — they read ``.graph``, ``.flashware.state`` /
``.charge_ops`` and ``._owner`` and leave the barrier to the driver,
which hands their ``{vid: {prop: value}}`` updates to the one columnar
barrier through :func:`columns`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.vertex import VertexView, WorkingView
from repro.runtime.flashware import UNSTAGED

Updates = Dict[int, Dict[str, Any]]
Temp = Tuple[int, int, Dict[str, Any]]


def columns(updates: Updates, contributors: Optional[Dict[int, Set[int]]] = None):
    """The kernels' per-vertex output in the barrier's shape: sorted ids,
    one list column per staged property (:data:`UNSTAGED` where a vertex
    staged other properties only) and, in push mode, the ``(target,
    contributing partition)`` reduce pairs as two parallel lists."""
    ids = sorted(updates)
    names = dict.fromkeys(name for props in updates.values() for name in props)
    cols = {name: [updates[vid].get(name, UNSTAGED) for vid in ids] for name in names}
    pairs = None
    if contributors is not None:
        pairs = (
            [d for d, parts in contributors.items() for _ in parts],
            [p for parts in contributors.values() for p in parts],
        )
    return np.array(ids, dtype=np.int64), cols, pairs


def run_vertex_map(engine, subset, F, M) -> Tuple[List[int], Updates]:
    """VERTEXMAP (Algorithm 1)."""
    fw = engine.flashware
    out: List[int] = []
    updates: Updates = {}
    for vid in subset:
        worker = engine._owner(vid)
        view = WorkingView(engine, vid)
        if F is not None:
            fw.charge_ops(worker, 1)
            if not F(view):
                continue
        if M is not None:
            fw.charge_ops(worker, 1)
            result = M(view)
            if isinstance(result, WorkingView):
                view = result
        out.append(vid)
        if view.staged:
            updates[vid] = dict(view.staged)
    return out, updates


def dense_targets(engine, edges) -> Iterable[int]:
    """The targets a pull over ``edges`` scans, ascending."""
    candidates = edges.candidate_targets(engine)
    if candidates is None:
        return range(engine.graph.num_vertices)
    return sorted({int(v) for v in candidates})


def run_edge_map_dense(engine, subset, edges, F, M, C, targets=None):
    """The pull kernel (Algorithm 5) over ``targets`` — all of
    :func:`dense_targets` inline, a worker's share of them under mp."""
    fw = engine.flashware
    out: List[int] = []
    updates: Updates = {}
    for vid in dense_targets(engine, edges) if targets is None else targets:
        sources = edges.in_sources(engine, vid)
        if len(sources) == 0:
            continue
        worker = engine._owner(vid)
        view = WorkingView(engine, vid)
        applied = False
        for src in sources:
            src = int(src)
            fw.charge_ops(worker, 1)
            if C is not None and not C(view):
                break
            if src not in subset:
                continue
            src_view = VertexView(engine, src)
            if F is None or F(src_view, view):
                result = M(src_view, view)
                if isinstance(result, WorkingView):
                    view = result
                applied = True
        if applied:
            out.append(vid)
            if view.staged:
                updates[vid] = dict(view.staged)
    return out, updates


def sparse_map(engine, sources, edges, F, M, C) -> List[Temp]:
    """Phase A of the push kernel (Algorithm 6): every active source
    stages a temp ``(target, source, staged)`` per passing arc, in
    production order."""
    fw = engine.flashware
    temps: List[Temp] = []
    for u in sources:
        worker = engine._owner(u)
        src_view = VertexView(engine, u)
        for d in edges.out_targets(engine, u):
            d = int(d)
            fw.charge_ops(worker, 1)
            if C is not None and not C(VertexView(engine, d)):
                continue
            tgt_view = WorkingView(engine, d)
            if F is not None and not F(src_view, tgt_view):
                continue
            result = M(src_view, tgt_view)
            if isinstance(result, WorkingView):
                tgt_view = result
            fw.charge_ops(worker, 1)
            temps.append((d, u, dict(tgt_view.staged)))
    return temps


def sparse_fold(engine, temps: Iterable[Temp], R) -> Updates:
    """Phase B: fold each target's temps with ``R``, in the order given."""
    fw = engine.flashware
    grouped: Dict[int, List[Dict[str, Any]]] = {}
    for d, _u, staged in temps:
        grouped.setdefault(d, []).append(staged)
    updates: Updates = {}
    for d, group in grouped.items():
        owner = engine._owner(d)
        acc = WorkingView(engine, d)
        for staged in group:
            fw.charge_ops(owner, 1)
            temp_view = WorkingView(engine, d, local=dict(staged))
            result = R(temp_view, acc)
            if isinstance(result, WorkingView):
                acc = result
        if acc.staged:
            updates[d] = dict(acc.staged)
    return updates


def run_edge_map_sparse(engine, subset, edges, F, M, C, R):
    """The push kernel: both phases in one process; a target's
    contributors are the partitions its temps came from."""
    temps = sparse_map(engine, subset, edges, F, M, C)
    owner = engine._owner
    contributors: Dict[int, Set[int]] = {}
    for d, u, _staged in temps:
        contributors.setdefault(d, set()).add(owner(u))
    return sorted(contributors), sparse_fold(engine, temps, R), contributors
