"""The interpreted kernels: Algorithms 1, 5 and 6 as the paper's
pseudocode reads, one Python call per vertex / per edge.

These loops are the reference semantics every other executor is held
to (the parity oracle), and the inline engine's non-columnar runner:
``FlashEngine`` calls the three functions below for every superstep the
columnar kernels cannot take, through the same interface the
multi-process session (``DistSession.run_*``) implements — run the user
functions, return ``(out, updates[, contributors])``, and leave the
barrier to the engine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.core.vertex import VertexView, WorkingView

Updates = Dict[int, Dict[str, Any]]


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


def run_edge_map_dense(engine, subset, edges, F, M, C) -> Tuple[List[int], Updates]:
    """The pull kernel (Algorithm 5)."""
    fw = engine.flashware
    candidates = edges.candidate_targets(engine)
    if candidates is None:
        target_iter: Iterable[int] = range(engine.graph.num_vertices)
    else:
        target_iter = sorted({int(v) for v in candidates})

    out: List[int] = []
    updates: Updates = {}
    for vid in target_iter:
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


def run_edge_map_sparse(
    engine, subset, edges, F, M, C, R
) -> Tuple[List[int], Updates, Dict[int, Set[int]]]:
    """The push kernel (Algorithm 6)."""
    fw = engine.flashware
    temps: Dict[int, List[Tuple[Dict[str, Any], int]]] = {}
    out: Set[int] = set()
    for u in subset:
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
            temps.setdefault(d, []).append((dict(tgt_view.staged), worker))
            out.add(d)

    updates: Updates = {}
    contributors: Dict[int, Set[int]] = {}
    for d, temp_list in temps.items():
        owner = engine._owner(d)
        acc = WorkingView(engine, d)
        for temp, part in temp_list:
            fw.charge_ops(owner, 1)
            temp_view = WorkingView(engine, d, local=dict(temp))
            result = R(temp_view, acc)
            if isinstance(result, WorkingView):
                acc = result
        if acc.staged:
            updates[d] = dict(acc.staged)
        contributors[d] = {part for _, part in temp_list}
    return sorted(out), updates, contributors
