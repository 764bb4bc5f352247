"""Out-of-core runtime: the block store as an arc source.

One :class:`OocoreRuntime` lives on each ``backend="oocore"`` engine.
It owns (or borrows) the engine's :class:`~repro.graph.blocks.BlockStore`
— building one from the resident CSR on first use, or reusing the store
behind a :class:`~repro.graph.blocks.BlockGraph` for graphs that were
never resident — and is the *block* provider of the arc-source seam
(:mod:`repro.runtime.vectorized.arcs`): the columnar kernels pull one
batch per non-skipped block through it, so only the currently mapped
blocks plus O(|V|) columns are ever resident.

Its knobs are the engine's ``oocore_budget`` / ``oocore_interval`` /
``oocore_dir`` settings (:class:`~repro.core.config.EngineConfig`);
engines built where no keyword reaches them inherit the ambient ones::

    with use_config(backend="oocore", oocore_budget=1 << 20):
        result = bfs(graph, root=0)
"""

from __future__ import annotations

import tempfile
from functools import partial
from typing import Iterator, Optional

import numpy as np

from repro.graph.blocks import BlockGraph, build_block_store
from repro.runtime.vectorized.arcs import EdgeBatch, unit_weights

#: Frontier density (active sources / interval width) at or above which
#: a block is processed in *scan* mode (bitmask over the block's arcs)
#: instead of *select* mode (binary search against the sorted active
#: ids) — M-Flash's dense/sparse bimodal choice.  Both modes select the
#: same arcs, so results and charged metrics never depend on it.
SCAN_DENSITY = 0.125


def _gather(column, idx: np.ndarray) -> np.ndarray:
    return np.asarray(column)[idx]


def _active_mask(frontier, src: np.ndarray, scan: bool, U: np.ndarray,
                 interval: int, si: int) -> np.ndarray:
    """Which of a block's arcs originate at an active vertex.

    Scan mode consults the O(|V|) frontier bitmask per arc; select mode
    binary-searches the (sorted) active ids restricted to the block's
    source interval.  Identical results — the bimodal choice only trades
    memory traffic for compute, per M-Flash."""
    if scan:
        return frontier[src]
    lo = int(np.searchsorted(U, si * interval))
    hi = int(np.searchsorted(U, (si + 1) * interval))
    act = U[lo:hi]
    idx = np.searchsorted(act, src)
    np.minimum(idx, len(act) - 1, out=idx)
    return act[idx] == src


class OocoreRuntime:
    """Store lifecycle + block scheduling for one oocore engine: the
    block store as an arc source (one batch per non-skipped block)."""

    def __init__(self, engine):
        """``engine.config`` supplies the knobs: ``oocore_budget`` bytes of
        simultaneously mapped blocks (LRU-evicted past it; ``None`` =
        :data:`~repro.graph.blocks.DEFAULT_BUDGET`), the block grid's
        ``oocore_interval`` width when built from a resident graph
        (``None`` = :func:`~repro.graph.blocks.default_interval`) and
        the ``oocore_dir`` it is built in (``None`` = a temporary
        directory removed on ``engine.close()``)."""
        cfg = engine.config
        budget, directory = cfg.oocore_budget, cfg.oocore_dir
        # the middleware, not the engine: an engine reference would
        # close a cycle through ``engine._col.arcs``
        self._fw = engine.flashware
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

        graph = engine.graph
        if isinstance(graph, BlockGraph):
            # Semi-external graph: the store pre-exists; borrow it.
            self.store = graph.store
            self._owns_store = False
        else:
            if directory is None:
                self._tmp = tempfile.TemporaryDirectory(prefix="repro-oocore-")
                directory = self._tmp.name
            self.store = build_block_store(graph, directory, interval=cfg.oocore_interval)
            self._owns_store = True
        if budget is not None:
            self.store.budget = max(1, int(budget))
        self.store.on_miss = self._charge_io
        rows = range(self.store.num_intervals)
        #: the manifest in streaming order: (di, si) ascending
        self._metas = [m for di in rows for m in self.store.row_metas(di)]
        n, width = self.store.num_vertices, self.store.interval
        #: vertices per source interval (the last one may be short)
        self._widths = np.maximum(np.minimum(width, n - width * np.asarray(rows)), 1)
        self._closed = False

    # ------------------------------------------------------------------
    def _charge_io(self, meta) -> None:
        """Block-store cache-miss hook: charge the read to the running
        superstep (adjacency reads between supersteps go uncharged —
        there is no record to attribute them to)."""
        rec = self._fw._current
        if rec is not None:
            rec.blocks_read += 1
            rec.bytes_read += meta.bytes

    # ------------------------------------------------------------------
    # The arc-source methods (see repro.runtime.vectorized.arcs)
    # ------------------------------------------------------------------
    def pull(self, ctx, state, U, eligible=None) -> Iterator[EdgeBatch]:
        return self._stream("pull", ctx, state, U, eligible)

    def push(self, ctx, state, U) -> Iterator[EdgeBatch]:
        # The in-CSR layout covers every arc, so the one grid serves the
        # push direction too: the out-arcs of U are the arcs with an
        # active source, whichever row they sit in.
        return self._stream("push", ctx, state, U, None)

    def _stream(self, kind, ctx, state, U, eligible) -> Iterator[EdgeBatch]:
        """Stream the non-empty blocks row by row, ascending source
        interval within a row (== each target's global in-CSR arc
        order), skipping source intervals with no active vertex — those
        blocks are never read — and yield each block's active arcs as
        one batch.

        The per-block selection strategy (``{kind}.scan`` or
        ``{kind}.select``) is chosen from frontier density.  Emits one
        ``oocore.block`` span per block streamed — ended in ``finally``,
        so the block a kernel failed in (or stopped at) is in the trace,
        flagged ``error``; cache misses are charged to the superstep by
        the store's miss hook.
        """
        store = self.store
        tracer = self._fw.tracer
        interval = store.interval
        active_per_si = np.bincount(U // interval, minlength=store.num_intervals)
        scan_si = active_per_si / self._widths >= SCAN_DENSITY
        frontier = None
        if scan_si[active_per_si > 0].any():
            frontier = np.zeros(ctx.n, dtype=bool)
            frontier[U] = True
        for meta in self._metas:
            di, si = meta.di, meta.si
            if active_per_si[si] == 0:
                continue
            scan = bool(scan_si[si])
            mode = f"{kind}.scan" if scan else f"{kind}.select"
            span = (
                tracer.start(
                    "oocore.block", cat="oocore",
                    di=di, si=si, arcs=meta.arcs,
                )
                if tracer.enabled
                else None
            )
            hit = None
            failed = True
            try:
                block, hit = store.get(di, si)
                src = np.asarray(block.src)
                dst = np.asarray(block.dst)
                keep = _active_mask(frontier, src, scan, U, interval, si)
                if eligible is not None:
                    keep &= eligible[dst]
                sel = np.flatnonzero(keep)
                if len(sel):
                    yield EdgeBatch(
                        ctx, state, src[sel], dst[sel], sel,
                        unit_weights if block.w is None else partial(_gather, block.w),
                        partial(_gather, block.pos) if kind == "pull" else None,
                        di,
                    )
                failed = False
            finally:
                if span is not None:
                    outcome = {"error": True} if failed else {}
                    span.end(bytes=meta.bytes, cached=hit, mode=mode, **outcome)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release mapped blocks; delete the store if this engine built
        it.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.store.on_miss is self._charge_io:
            self.store.on_miss = None
        if self._owns_store:
            self.store.close()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None
        else:
            # Borrowed store (BlockGraph): unmap our working set but
            # leave the store open for other engines over the graph.
            self.store.release()
