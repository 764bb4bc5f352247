"""Engine-free reference answers and output verification.

Nothing here imports ``repro``: the references are NumPy / SciPy over
the raw edge arrays the workload generated, so a bug in the engine, a
backend or the server cannot also be in the oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

#: Relative tolerance for float answers (summation order differs between
#: the engine's in-arc-order fold and NumPy's bincount).
RTOL = 1e-9


def _symmetric(n: int, src: np.ndarray, dst: np.ndarray,
               weights: Optional[np.ndarray] = None) -> sp.csr_matrix:
    data = np.ones(len(src)) if weights is None else np.asarray(weights, float)
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    both = np.concatenate([data, data])
    mat = sp.coo_matrix((both, (rows, cols)), shape=(n, n)).tocsr()
    # Duplicate undirected edges would sum their weights; the workloads
    # generate none for weighted graphs, and hop counts ignore the data.
    return mat


def pagerank(n: int, src: np.ndarray, dst: np.ndarray, *, damping: float = 0.85,
             max_iters: int = 20, tolerance: float = 1e-9) -> np.ndarray:
    """Power iteration replaying ``repro.algorithms.pagerank``'s rule on
    an undirected multigraph: every stored arc (both directions, with
    multiplicity) scatters ``rank / out_degree``; sinks spread their
    rank uniformly; stop on L1 change below ``tolerance``."""
    arc_src = np.concatenate([src, dst])
    arc_dst = np.concatenate([dst, src])
    out_deg = np.bincount(arc_src, minlength=n).astype(float)
    dangling = out_deg == 0
    rank = np.full(n, 1.0 / max(n, 1))
    safe_deg = np.where(dangling, 1.0, out_deg)
    for _ in range(max_iters):
        share = rank / safe_deg
        acc = np.bincount(arc_dst, weights=share[arc_src], minlength=n)
        extra = rank[dangling].sum() / n if dangling.any() else 0.0
        new = (1.0 - damping) / n + damping * (acc + extra)
        delta = np.abs(new - rank).sum()
        rank = new
        if delta < tolerance:
            break
    return rank


def components_min_label(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per vertex, the smallest vertex id in its connected component
    (what label propagation converges to)."""
    _count, labels = csgraph.connected_components(_symmetric(n, src, dst), directed=False)
    smallest = np.full(labels.max() + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(smallest, labels, np.arange(n))
    return smallest[labels].astype(float)


def bfs_levels(n: int, src: np.ndarray, dst: np.ndarray,
               roots: Sequence[int]) -> np.ndarray:
    """Hop distances from each root (``inf`` when unreachable), one row
    per root."""
    return csgraph.shortest_path(
        _symmetric(n, src, dst), directed=False, unweighted=True,
        indices=list(roots),
    )


def dijkstra(n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray,
             roots: Sequence[int]) -> np.ndarray:
    """Weighted shortest-path distances from each root, one row per root."""
    return csgraph.dijkstra(
        _symmetric(n, src, dst, weights), directed=False, indices=list(roots)
    )


def matches(got, want: np.ndarray) -> bool:
    """Whether one operation's output equals the reference (shape, then
    values at ``RTOL``; infinities must agree exactly)."""
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.allclose(got, want, rtol=RTOL, atol=0.0, equal_nan=False))


def fail_share(errors: int, wrong: int, attempted: int) -> float:
    return (errors + wrong) / attempted if attempted else 1.0


def self_test() -> None:
    """The verifier must notice a wrong answer: feed it one corrupted
    result and require a positive ``fail_share``."""
    rng = np.random.default_rng(0)
    n = 50
    src = rng.integers(0, n, size=120)
    dst = rng.integers(0, n, size=120)
    want = pagerank(n, src, dst, max_iters=5)
    good = want.copy()
    bad = want.copy()
    bad[7] *= 1.0 + 1e-6
    wrong = sum(0 if matches(r, want) else 1 for r in (good, bad))
    share = fail_share(0, wrong, 2)
    if not (matches(good, want) and share > 0):
        raise AssertionError("oracle self-test: corrupted result not detected")
    levels = bfs_levels(n, src, dst, [0])[0]
    shifted = np.where(np.isfinite(levels), levels + 1, levels)
    if matches(shifted, levels):
        raise AssertionError("oracle self-test: shifted BFS levels accepted")
