"""Arc sources: where the columnar kernels get their arcs from.

The columnar EDGEMAP kernels (:mod:`repro.runtime.vectorized.kernels`)
are folds over *batches of active arcs*.  An arc source hands those
batches out; it hides the storage format, nothing else.  There are
exactly two — :class:`ResidentArcs` here (the in-RAM CSR) and
:class:`repro.runtime.oocore.runtime.OocoreRuntime` (checksummed
memory-mapped block shards) — with the same three methods:

``pull(ctx, state, U, eligible=None)``
    Batches of the in-arcs whose source is in the sorted id array ``U``
    (and, when given, whose target passes the per-vertex ``eligible``
    mask), for the dense kernels.
``push(ctx, state, U)``
    Batches of the out-arcs of ``U``, for the sparse kernel.
``close()``
    Release whatever the source holds open.

The order contract — what makes per-target ``sum`` / ``min`` / ``last``
folds and first-arc selection bit-identical across sources:

* batches arrive in ascending destination row (``batch.row``; the
  resident CSR is a single row, pulled in bounded slices of ascending
  in-CSR position), so targets never go back to an earlier row;
* in both directions each target's arcs arrive in ascending source
  order — the in-CSR order :mod:`repro.graph.blocks` lays shards out
  in — so a stable sort of the arrived arcs by target is the in-CSR
  sequence, whichever source they came from;
* a ``pull`` batch is itself sorted by ``(dst, src)`` and carries
  ``pos``, each arc's global in-CSR position.  ``push`` batches carry no
  ``pos`` (push never scans an in-list; the sparse kernel orders what it
  kept by target once per row).

A batch is valid until the next one is requested: ``w`` / ``pos`` of a
block batch read shards that may be unmapped by then.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np


def _identity(idx: np.ndarray) -> np.ndarray:
    return idx


def unit_weights(idx: np.ndarray) -> np.ndarray:
    """``w_at`` of an unweighted source: all ones, nothing gathered."""
    return np.ones(len(idx), dtype=np.float64)


class EdgeBatch:
    """A batch of arcs: parallel ``src`` / ``dst`` id arrays plus typed
    property access for spec callables.

    ``w`` (and ``pos``) resolve on first read through the source's
    columns at ``_idx``, so a kernel that never reads weights never
    gathers — or pages in — any."""

    __slots__ = ("_ctx", "_state", "src", "dst", "row", "_idx", "_pos_at", "_w_at")

    def __init__(
        self,
        ctx,
        state,
        src: np.ndarray,
        dst: np.ndarray,
        idx: np.ndarray,
        w_at: Callable[[np.ndarray], np.ndarray],
        pos_at: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        row: int = 0,
    ):
        self._ctx = ctx
        self._state = state
        self.src = src
        self.dst = dst
        self.row = row
        self._idx = idx
        self._w_at = w_at
        self._pos_at = pos_at

    def take(self, keep: np.ndarray) -> "EdgeBatch":
        """The sub-batch selected by a boolean mask or index array."""
        return EdgeBatch(
            self._ctx, self._state, self.src[keep], self.dst[keep],
            self._idx[keep], self._w_at, self._pos_at, self.row,
        )

    def sp(self, name: str) -> np.ndarray:
        """Source-vertex values of property ``name``."""
        return self._state.array(name)[self.src]

    def dp(self, name: str) -> np.ndarray:
        """Target-vertex values of property ``name`` (current snapshot)."""
        return self._state.array(name)[self.dst]

    @property
    def w(self) -> np.ndarray:
        """Per-edge weights (1.0 when the graph is unweighted)."""
        return self._w_at(self._idx)

    @property
    def pos(self) -> np.ndarray:
        """Global in-CSR position of each arc (``pull`` batches only)."""
        return self._pos_at(self._idx)

    @property
    def src_out_deg(self) -> np.ndarray:
        return self._ctx.out_degrees[self.src]

    @property
    def src_in_deg(self) -> np.ndarray:
        return self._ctx.in_degrees[self.src]

    def __len__(self) -> int:
        return len(self.src)


#: Arcs per ``ResidentArcs.pull`` batch.  A dense superstep makes ~8
#: arc-sized temporaries (selection mask, ``pos`` / ``src`` / ``dst``,
#: gathered values).  Bounded slices keep that footprint at a few MB
#: whatever the graph, which malloc recycles; 25+ MB per superstep (the
#: whole CSR of a 400 k-arc graph at once) is returned to the kernel and
#: page-faulted back in (~9 k faults, +12 % on a 100 ms op) in some heap
#: states and not in others, so op time depends on the process's
#: allocation history.
PULL_BATCH_ARCS = 1 << 16


class ResidentArcs:
    """The resident CSR as an arc source: ``pull`` streams the in-CSR in
    slices of ``PULL_BATCH_ARCS`` arcs, ``push`` hands out one batch.

    The only O(|arcs|) arrays the columnar tier keeps live here."""

    def __init__(self, graph):
        self.graph = graph
        self._in_targets: Optional[np.ndarray] = None

    def _in_w(self, idx: np.ndarray) -> np.ndarray:
        return self.graph.arc_weights(self.graph.in_csr.arc_ids[idx])

    def _out_w(self, idx: np.ndarray) -> np.ndarray:
        return self.graph.arc_weights(self.graph.out_csr.arc_ids[idx])

    def pull(self, ctx, state, U, eligible=None) -> Iterator[EdgeBatch]:
        in_csr = self.graph.in_csr
        tgts = self._in_targets
        if tgts is None:
            # target vertex of every in-arc, in CSR (target-major) order
            tgts = self._in_targets = np.repeat(
                np.arange(ctx.n, dtype=np.int64), ctx.in_degrees
            )
        frontier = np.zeros(ctx.n, dtype=bool)
        frontier[U] = True
        srcs = in_csr.indices
        for lo in range(0, len(srcs), PULL_BATCH_ARCS):
            hi = lo + PULL_BATCH_ARCS
            active = frontier[srcs[lo:hi]]
            if eligible is not None:
                active &= eligible[tgts[lo:hi]]
            pos = np.flatnonzero(active)
            if len(pos):
                pos += lo
                yield EdgeBatch(
                    ctx, state, srcs[pos], tgts[pos], pos, self._in_w, _identity
                )

    def push(self, ctx, state, U) -> Iterator[EdgeBatch]:
        out_csr = self.graph.out_csr
        counts = ctx.out_degrees[U]
        total = int(counts.sum())
        # flat out-CSR slots of every out-arc of the frontier, in
        # frontier (ascending source) order
        group_first = np.repeat(np.cumsum(counts) - counts, counts)
        slots = np.repeat(out_csr.indptr[U], counts) + (
            np.arange(total, dtype=np.int64) - group_first
        )
        yield EdgeBatch(
            ctx, state, np.repeat(U, counts), out_csr.indices[slots], slots,
            self._out_w,
        )

    def close(self) -> None:
        """Drop the O(|arcs|) target column, so a closed engine that is
        still referenced does not pin it (a later pull rebuilds it)."""
        self._in_targets = None
