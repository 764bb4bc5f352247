"""Label Propagation (paper Algorithm 20, after Raghavan et al. [49]).

Every vertex repeatedly adopts the most frequent label among its
neighbors for a fixed number of iterations.  Labels arrive in the
variable-length property ``inbox`` (the paper's ``set`` — really a
multiset, since frequencies matter), which is why Gemini cannot express
this algorithm (§V, Appendix B-I).
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.algorithms.common import AlgorithmResult, local_list, make_engine
from repro.core.engine import FlashEngine
from repro.core.primitives import ctrue
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.runtime.vectorized.specs import EdgeMapSpec, VertexMapSpec

_INIT_SPEC = VertexMapSpec(
    map=lambda k: {"c": k.ids, "cc": k.ids, "inbox": [[] for _ in range(len(k))]},
    raw_reads=("inbox",),
    writes=("c", "cc", "inbox"),
)
# Gossip: append the source's label to every neighbor's inbox (a gather
# into the list-valued column, pull mode).
_GOSSIP_SPEC = EdgeMapSpec(
    prop="inbox",
    kind="gather",
    value=lambda k: k.sp("c"),
    reads=("c",),
)


def _tally(batch) -> Dict[str, object]:
    """Vectorized majority vote: for each vertex, the most frequent inbox
    label (ties to the smallest label, falling back to the current label
    for empty inboxes) — then the inbox is consumed."""
    inbox = batch.raw("inbox")
    ids = batch.ids.tolist()
    lists = [inbox[v] for v in ids]
    lengths = np.fromiter((len(l) for l in lists), dtype=np.int64, count=len(lists))
    total = int(lengths.sum())
    cc_new = batch.p("c").copy()
    if total:
        labels = np.fromiter(
            (label for l in lists for label in l), dtype=np.int64, count=total
        )
        segments = np.repeat(np.arange(len(lists), dtype=np.int64), lengths)
        order = np.lexsort((labels, segments))
        slabels, ssegments = labels[order], segments[order]
        run_start = np.ones(total, dtype=bool)
        run_start[1:] = (slabels[1:] != slabels[:-1]) | (ssegments[1:] != ssegments[:-1])
        starts = np.flatnonzero(run_start)
        run_seg = ssegments[starts]
        run_label = slabels[starts]
        run_count = np.diff(np.append(starts, total))
        # per segment: highest count wins, ties to the smallest label
        ranked = np.lexsort((run_label, -run_count, run_seg))
        seg_sorted = run_seg[ranked]
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = seg_sorted[1:] != seg_sorted[:-1]
        winners = ranked[first]
        cc_new[run_seg[winners]] = run_label[winners]
    return {"cc": cc_new, "inbox": [[] for _ in range(len(lists))]}


_TALLY_SPEC = VertexMapSpec(
    map=_tally, reads=("c", "cc"), raw_reads=("inbox",), writes=("cc", "inbox")
)


def lpa(
    graph_or_engine: Union[Graph, FlashEngine],
    num_workers: int = 4,
    max_iters: int = 10,
) -> AlgorithmResult:
    """Community labels after ``max_iters`` propagation rounds (or until
    no vertex changes, whichever is first)."""
    eng = make_engine(graph_or_engine, num_workers)
    eng.add_property("c", 0)
    eng.add_property("cc", 0)
    eng.add_property("inbox", factory=list)

    def init(v):
        v.c = v.id
        v.cc = v.id
        v.inbox = []
        return v

    def update1(s, d):
        local_list(d, "inbox").append(s.c)
        return d

    def r1(t, d):
        merged = local_list(d, "inbox")
        merged.extend(t.inbox)
        return d

    def local1(v):
        best_count = 0
        best = v.c
        counts = {}
        for label in v.inbox:
            counts[label] = counts.get(label, 0) + 1
        # Deterministic tie-break: highest count, then smallest label.
        for label in sorted(counts):
            if counts[label] > best_count:
                best_count = counts[label]
                best = label
        v.cc = best
        v.inbox = []  # consume the round's messages
        return v

    def changed(v):
        return v.c != v.cc

    def local2(v):
        v.c = v.cc
        return v

    eng.vertex_map(eng.V, ctrue, init, label="lpa:init", spec=_INIT_SPEC)
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        moved = eng.edge_map(
            eng.V, eng.E, ctrue, update1, ctrue, r1,
            label="lpa:gossip", spec=_GOSSIP_SPEC,
        )
        moved = eng.vertex_map(moved, ctrue, local1, label="lpa:tally", spec=_TALLY_SPEC)
        moved = eng.vertex_map(eng.V, changed, local2, label="lpa:commit")
        if eng.size(moved) == 0:
            break
    return AlgorithmResult(
        "lpa", eng, eng.values("c"), iterations, extra={"num_labels": len(set(eng.values("c")))}
    )


def lpa_semi(
    graph_or_engine: Union[Graph, FlashEngine],
    seed_labels: Dict[int, int],
    num_workers: int = 4,
    max_iterations: int = 10_000,
) -> AlgorithmResult:
    """Semi-supervised label propagation (Zhu & Ghahramani [48] — the
    paper's primary LPA citation): a small set of vertices start with
    known labels, which spread to the unlabeled rest; seed labels are
    clamped.  Unlabeled vertices adopt the most frequent label among
    their *labeled* neighbors; ties break to the smallest label."""
    if not seed_labels:
        raise ValueError("lpa_semi needs at least one seeded vertex")
    eng = make_engine(graph_or_engine, num_workers)
    n = eng.graph.num_vertices
    for vid in seed_labels:
        if not 0 <= vid < n:
            raise ValueError(f"seed vertex {vid} out of range")
    seeds = dict(seed_labels)

    eng.add_property("c", -1)
    eng.add_property("inbox", factory=list)

    def init(v):
        v.c = seeds.get(v.id, -1)
        return v

    def labeled(s, d):
        return s.c != -1

    def gossip(s, d):
        local_list(d, "inbox").append(s.c)
        return d

    def merge(t, d):
        merged = local_list(d, "inbox")
        merged.extend(t.inbox)
        return d

    def adopt(v):
        if v.id not in seeds and v.inbox:
            counts: Dict[int, int] = {}
            for label in v.inbox:
                counts[label] = counts.get(label, 0) + 1
            best, best_count = v.c, 0
            for label in sorted(counts):
                if counts[label] > best_count:
                    best, best_count = label, counts[label]
            v.c = best
        v.inbox = []
        return v

    eng.vertex_map(eng.V, ctrue, init, label="lpa_semi:init")
    iterations = 0
    previous = eng.values("c")
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise ReproError("lpa_semi failed to converge")
        touched = eng.edge_map(eng.V, eng.E, labeled, gossip, ctrue, merge, label="lpa_semi:gossip")
        eng.vertex_map(touched, ctrue, adopt, label="lpa_semi:adopt")
        current = eng.values("c")
        if current == previous:
            break
        previous = current

    labels = eng.values("c")
    covered = sum(1 for c in labels if c != -1)
    return AlgorithmResult(
        "lpa_semi", eng, labels, iterations,
        extra={"covered": covered, "seeds": dict(seeds)},
    )
