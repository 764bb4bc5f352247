"""On-disk edge-block storage for out-of-core execution.

The out-of-core backend (``backend="oocore"``, see
:mod:`repro.runtime.oocore`) keeps only vertex columns resident and
streams the graph's arcs from disk.  This module owns the disk format:

* the graph's arcs are laid out on the **in-CSR order** — target-major,
  source-ascending within each target — and partitioned into a
  destination-interval × source-interval grid of *blocks* (M-Flash's
  layout, applied to the pull direction our dense kernels scan);
* each non-empty block is persisted as one raw little-endian file
  ``blocks/b{di}_{si}.blk`` holding ``src | dst | pos | [w]`` back to
  back (``int64`` ×3 — ``pos`` is the arc's global in-CSR position —
  and ``float64`` ``w`` when the graph is weighted; the manifest's
  ``arcs`` gives every offset), mapped read-only with one ``mmap`` so
  the OS pages arcs in on demand and a column no kernel reads is never
  faulted in;
* a JSON ``manifest.json`` records the layout (format version, interval
  size, per-block arc/byte counts) plus a checksum, and the resident
  O(|V|) side arrays (degrees) ride along as ``.npy`` files.

Iterating a destination row's blocks in ascending source-interval order
replays each target's arcs in exact global in-CSR order — the property
the columnar kernels rely on for bit-identical floating-point folds when
they read arcs through the block store (see ``docs/out_of_core.md``).

:class:`BlockStore` memory-maps blocks under an LRU byte budget;
:class:`BlockGraph` is a graph-shaped handle over a store for graphs
that were never resident (built by :func:`build_block_store_streamed`).
"""

from __future__ import annotations

import json
import math
import mmap
import os
import shutil
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

#: On-disk format version; bump on any incompatible layout change.
BLOCK_FORMAT_VERSION = 2

#: Column dtypes of a ``.blk`` file: little-endian whatever the host.
_INT = np.dtype("<i8")
_FLOAT = np.dtype("<f8")

#: Default memory budget for mapped blocks (bytes) when none is given.
DEFAULT_BUDGET = 64 * 1024 * 1024


def default_interval(num_vertices: int) -> int:
    """The destination/source interval width used when none is given:
    at most a 16x16 block grid, never below 256 vertices per interval
    (tiny graphs collapse to a single block)."""
    return max(256, math.ceil(max(num_vertices, 1) / 16))


@dataclass(frozen=True)
class BlockMeta:
    """Manifest entry for one non-empty block."""

    di: int  #: destination-interval index
    si: int  #: source-interval index
    arcs: int
    bytes: int  #: file size on disk: ``arcs`` x 8 x (3 | 4 columns)


class Block:
    """One loaded block: read-only column views over its one mapping."""

    __slots__ = ("meta", "src", "dst", "pos", "w", "_mm")

    def __init__(self, meta: BlockMeta, mm: mmap.mmap, weighted: bool):
        n = meta.arcs
        self.meta = meta
        self._mm = mm
        self.src = np.frombuffer(mm, _INT, n, 0)
        self.dst = np.frombuffer(mm, _INT, n, 8 * n)
        self.pos = np.frombuffer(mm, _INT, n, 16 * n)
        self.w = np.frombuffer(mm, _FLOAT, n, 24 * n) if weighted else None

    def close(self) -> None:
        """Unmap now (descriptor included), not at GC time.  A column a
        caller still holds keeps the mapping alive until it lets go."""
        self.src = self.dst = self.pos = self.w = None
        try:
            self._mm.close()
        except BufferError:
            pass


def _manifest_checksum(core: Dict) -> int:
    """CRC32 over the canonical JSON of the manifest core (everything
    except the checksum itself) — cheap tamper/truncation detection."""
    payload = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def _block_name(di: int, si: int) -> str:
    return f"b{di}_{si}.blk"


class _BlockWriter:
    """Shared block-writing core of the two builders."""

    def __init__(self, directory: Path, weighted: bool):
        self.directory = directory
        self.weighted = weighted
        self.blocks: List[Dict] = []
        (directory / "blocks").mkdir(parents=True, exist_ok=True)

    def write(self, di: int, si: int, src, dst, pos, w=None) -> None:
        if len(src) == 0:
            return
        columns = [(src, _INT), (dst, _INT), (pos, _INT)]
        if self.weighted:
            columns.append((w, _FLOAT))
        with open(self.directory / "blocks" / _block_name(di, si), "wb") as f:
            for arr, dtype in columns:
                np.ascontiguousarray(arr, dtype=dtype).tofile(f)
        arcs = int(len(src))
        self.blocks.append(
            {"di": di, "si": si, "arcs": arcs, "bytes": arcs * 8 * len(columns)}
        )

    def finish(
        self,
        num_vertices: int,
        num_arcs: int,
        num_edges: int,
        directed: bool,
        interval: int,
        out_degrees: np.ndarray,
        in_degrees: np.ndarray,
    ) -> Path:
        np.save(self.directory / "out_degrees.npy", out_degrees.astype(np.int64))
        np.save(self.directory / "in_degrees.npy", in_degrees.astype(np.int64))
        core = {
            "format_version": BLOCK_FORMAT_VERSION,
            "num_vertices": int(num_vertices),
            "num_arcs": int(num_arcs),
            "num_edges": int(num_edges),
            "directed": bool(directed),
            "weighted": bool(self.weighted),
            "interval": int(interval),
            "num_intervals": max(1, math.ceil(num_vertices / interval)),
            "blocks": sorted(self.blocks, key=lambda b: (b["di"], b["si"])),
        }
        manifest = dict(core)
        manifest["checksum"] = _manifest_checksum(core)
        path = self.directory / "manifest.json"
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        return path


def build_block_store(
    graph, directory: PathLike, interval: Optional[int] = None
) -> "BlockStore":
    """Partition ``graph``'s arcs (in-CSR order) into interval×interval
    blocks under ``directory`` and return an opened :class:`BlockStore`.

    Built once per graph; subsequent runs re-open the block files.  The
    in-CSR covers *every* arc (both directions for undirected graphs),
    so the one layout serves both the pull (dense) and push (sparse)
    kernels.
    """
    directory = Path(directory)
    n = graph.num_vertices
    if interval is None:
        interval = default_interval(n)
    interval = max(1, int(interval))
    num_intervals = max(1, math.ceil(n / interval))

    in_csr = graph.in_csr
    indptr = in_csr.indptr
    srcs = in_csr.indices
    in_degrees = np.diff(indptr)
    weighted = graph.weighted
    weights = graph.arc_weights(in_csr.arc_ids) if weighted else None

    writer = _BlockWriter(directory, weighted)
    for di in range(num_intervals):
        lo_v = di * interval
        hi_v = min(n, lo_v + interval)
        lo, hi = int(indptr[lo_v]), int(indptr[hi_v])
        if lo == hi:
            continue
        row_src = srcs[lo:hi]
        row_dst = np.repeat(
            np.arange(lo_v, hi_v, dtype=np.int64), in_degrees[lo_v:hi_v]
        )
        row_pos = np.arange(lo, hi, dtype=np.int64)
        sis = row_src // interval
        for si in range(num_intervals):
            idx = np.flatnonzero(sis == si)  # ascending == global pos order
            writer.write(
                di, si, row_src[idx], row_dst[idx], row_pos[idx],
                weights[lo:hi][idx] if weighted else None,
            )
    writer.finish(
        n, graph.num_arcs, graph.num_edges, graph.directed, interval,
        graph.out_degrees(), in_degrees,
    )
    return BlockStore(directory)


def build_block_store_streamed(
    directory: PathLike,
    num_vertices: int,
    chunks: Callable[[], Iterable[Tuple[np.ndarray, np.ndarray]]],
    directed: bool = False,
    interval: Optional[int] = None,
) -> "BlockStore":
    """Build a block store for a graph that is never resident.

    ``chunks`` is a zero-argument callable returning an iterable of
    ``(src, dst)`` edge-array chunks (it is consumed twice — pass a
    generator *factory*, e.g. a seeded random generator).  Undirected
    edges are mirrored internally.  Memory use is bounded by the largest
    destination row (``interval`` × average degree arcs), never the
    whole edge list — the external bucket sort that makes ≥10×-of-RAM
    graphs buildable.
    """
    directory = Path(directory)
    n = int(num_vertices)
    if interval is None:
        interval = default_interval(n)
    interval = max(1, int(interval))
    num_intervals = max(1, math.ceil(n / interval))

    def _arc_chunks() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for src, dst in chunks():
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            if src.size and (src.min() < 0 or src.max() >= n
                             or dst.min() < 0 or dst.max() >= n):
                raise ValueError("edge chunk has a vertex id out of range")
            yield src, dst
            if not directed:
                yield dst, src

    # pass 1: degree counts (the resident O(|V|) side arrays)
    out_deg = np.zeros(n, dtype=np.int64)
    in_deg = np.zeros(n, dtype=np.int64)
    num_arcs = 0
    num_edges = 0
    for src, dst in chunks():
        num_edges += len(src)
    for src, dst in _arc_chunks():
        num_arcs += len(src)
        out_deg += np.bincount(src, minlength=n)
        in_deg += np.bincount(dst, minlength=n)
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_deg, out=in_indptr[1:])

    # pass 2: bucket arcs into destination rows on disk
    spill = directory / "_rows"
    spill.mkdir(parents=True, exist_ok=True)
    handles: Dict[int, Tuple] = {}
    try:
        for src, dst in _arc_chunks():
            dis = dst // interval
            for di in np.unique(dis).tolist():
                sel = dis == di
                pair = handles.get(di)
                if pair is None:
                    pair = (
                        open(spill / f"r{di}.src", "ab"),
                        open(spill / f"r{di}.dst", "ab"),
                    )
                    handles[di] = pair
                src[sel].tofile(pair[0])
                dst[sel].tofile(pair[1])
    finally:
        for fs, fd in handles.values():
            fs.close()
            fd.close()

    writer = _BlockWriter(directory, weighted=False)
    try:
        for di in range(num_intervals):
            src_path = spill / f"r{di}.src"
            if not src_path.exists():
                continue
            row_src = np.fromfile(src_path, dtype=np.int64)
            row_dst = np.fromfile(spill / f"r{di}.dst", dtype=np.int64)
            # global in-CSR order: (dst, src) ascending within the row
            order = np.lexsort((row_src, row_dst))
            row_src = row_src[order]
            row_dst = row_dst[order]
            row_pos = int(in_indptr[di * interval]) + np.arange(
                len(row_src), dtype=np.int64
            )
            sis = row_src // interval
            for si in range(num_intervals):
                idx = np.flatnonzero(sis == si)
                writer.write(di, si, row_src[idx], row_dst[idx], row_pos[idx])
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    writer.finish(n, num_arcs, num_edges, directed, interval, out_deg, in_deg)
    return BlockStore(directory)


class BlockStore:
    """Memory-mapped access to a built block grid, under a byte budget.

    ``get`` maps a block's file on first touch and keeps it in an
    LRU cache; once the summed block bytes exceed ``budget``, the
    least-recently-used blocks are unmapped (their descriptors closed),
    so resident block memory — and therefore the page cache the process
    can pin — stays bounded.  A single block larger than the whole
    budget is still usable: the cache always keeps at least the block
    being served.
    """

    def __init__(self, directory: PathLike, budget: Optional[int] = None):
        self.directory = Path(directory)
        manifest_path = self.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("format_version")
        if version != BLOCK_FORMAT_VERSION:
            raise ValueError(
                f"{manifest_path}: block store format v{version} not supported "
                f"(expected v{BLOCK_FORMAT_VERSION})"
            )
        core = {k: v for k, v in manifest.items() if k != "checksum"}
        if _manifest_checksum(core) != manifest.get("checksum"):
            raise ValueError(f"{manifest_path}: manifest checksum mismatch")
        self.num_vertices: int = manifest["num_vertices"]
        self.num_arcs: int = manifest["num_arcs"]
        self.num_edges: int = manifest["num_edges"]
        self.directed: bool = manifest["directed"]
        self.weighted: bool = manifest["weighted"]
        self.interval: int = manifest["interval"]
        self.num_intervals: int = manifest["num_intervals"]
        self._meta: Dict[Tuple[int, int], BlockMeta] = {}
        #: destination row -> its non-empty blocks, ascending ``si``
        self._rows: Dict[int, List[BlockMeta]] = {}
        for b in sorted(manifest["blocks"], key=lambda b: (b["di"], b["si"])):
            meta = BlockMeta(b["di"], b["si"], b["arcs"], b["bytes"])
            self._meta[meta.di, meta.si] = meta
            self._rows.setdefault(meta.di, []).append(meta)
        self.total_bytes: int = sum(m.bytes for m in self._meta.values())
        self._blocks_dir = os.path.join(self.directory, "blocks", "")
        self._arc_bytes = 8 * (4 if self.weighted else 3)
        self.budget: int = DEFAULT_BUDGET if budget is None else max(1, int(budget))
        self._cache: "OrderedDict[Tuple[int, int], Block]" = OrderedDict()
        self._mapped_bytes = 0
        self._closed = False
        #: Lifetime counters (the leak test and benchmarks read these).
        self.blocks_loaded = 0
        self.blocks_evicted = 0
        #: Optional cache-miss hook ``fn(meta)`` — the oocore runtime
        #: uses it to charge block reads to the running superstep.
        self.on_miss: Optional[Callable[[BlockMeta], None]] = None

    # ------------------------------------------------------------------
    def block_meta(self, di: int, si: int) -> Optional[BlockMeta]:
        return self._meta.get((di, si))

    def row_metas(self, di: int) -> List[BlockMeta]:
        """Non-empty blocks of destination row ``di``, ascending ``si``."""
        return list(self._rows.get(di, ()))

    @property
    def mapped_bytes(self) -> int:
        return self._mapped_bytes

    def out_degrees(self) -> np.ndarray:
        return np.load(self.directory / "out_degrees.npy")

    def in_degrees(self) -> np.ndarray:
        return np.load(self.directory / "in_degrees.npy")

    # ------------------------------------------------------------------
    def get(self, di: int, si: int) -> Tuple[Block, bool]:
        """The block at ``(di, si)`` and whether it was already mapped
        (``True`` = cache hit, no I/O charged by the caller)."""
        if self._closed:
            raise RuntimeError("block store is closed")
        key = (di, si)
        block = self._cache.get(key)
        if block is not None:
            self._cache.move_to_end(key)
            return block, True
        meta = self._meta.get(key)
        if meta is None:
            raise KeyError(f"no block at {key}")
        block = Block(meta, self._map(meta), self.weighted)
        self._cache[key] = block
        self._mapped_bytes += meta.bytes
        self.blocks_loaded += 1
        if self.on_miss is not None:
            self.on_miss(meta)
        while self._mapped_bytes > self.budget and len(self._cache) > 1:
            _key, evicted = self._cache.popitem(last=False)
            self._mapped_bytes -= evicted.meta.bytes
            self.blocks_evicted += 1
            evicted.close()
        return block, False

    def _map(self, meta: BlockMeta) -> mmap.mmap:
        """One read-only mapping of the block's file, after checking its
        size against the manifest; leaves no descriptor open on failure."""
        path = self._blocks_dir + _block_name(meta.di, meta.si)
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError as exc:
            raise ValueError(f"{path}: block file is missing") from exc
        try:
            size = os.fstat(fd).st_size
            if not (size == meta.bytes == meta.arcs * self._arc_bytes):
                raise ValueError(
                    f"{path}: block file is {size} bytes, manifest expects "
                    f"{meta.bytes} ({meta.arcs} arcs x {self._arc_bytes})"
                )
            return mmap.mmap(fd, size, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)

    def release(self) -> None:
        """Unmap every cached block (keeps the store usable)."""
        for block in self._cache.values():
            block.close()
        self._cache.clear()
        self._mapped_bytes = 0

    def close(self) -> None:
        """Unmap all blocks and mark the store closed.  Idempotent."""
        if self._closed:
            return
        self.release()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"BlockStore({self.directory}, {len(self._meta)} blocks, "
            f"{self.total_bytes}B on disk, budget={self.budget}B)"
        )


class BlockGraph:
    """A graph-shaped handle over a :class:`BlockStore` for graphs that
    were never resident: only O(|V|) arrays (degrees) live in memory;
    adjacency queries page the relevant blocks in on demand.

    Implements the :class:`~repro.graph.graph.Graph` surface the engine,
    partitioner and interpreted kernels touch — per-vertex adjacency is
    *slow* (it scans a row or column of blocks), which is exactly the
    interp-over-blocks fallback contract: correct for unsynthesizable
    kernels, fast only through the columnar block kernels.
    """

    def __init__(self, store: BlockStore):
        self.store = store
        self._out_degrees = store.out_degrees()
        self._in_degrees = store.in_degrees()

    # -- Graph surface -------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.store.num_vertices

    @property
    def num_arcs(self) -> int:
        return self.store.num_arcs

    @property
    def num_edges(self) -> int:
        return self.store.num_edges

    @property
    def directed(self) -> bool:
        return self.store.directed

    @property
    def weighted(self) -> bool:
        return self.store.weighted

    def vertices(self) -> range:
        return range(self.num_vertices)

    def out_degrees(self) -> np.ndarray:
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        return self._in_degrees

    def degrees(self) -> np.ndarray:
        if self.directed:
            return self._out_degrees + self._in_degrees
        return self._out_degrees

    def out_degree(self, v: int) -> int:
        return int(self._out_degrees[v])

    def in_degree(self, v: int) -> int:
        return int(self._in_degrees[v])

    def degree(self, v: int) -> int:
        if self.directed:
            return self.out_degree(v) + self.in_degree(v)
        return self.out_degree(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbor ids of ``v`` (reads row ``v // interval``)."""
        store = self.store
        di = v // store.interval
        parts = []
        for meta in store.row_metas(di):
            block, _hit = store.get(di, meta.si)
            lo = int(np.searchsorted(block.dst, v, side="left"))
            hi = int(np.searchsorted(block.dst, v, side="right"))
            if hi > lo:
                parts.append(np.asarray(block.src[lo:hi]))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbor ids of ``v`` (scans column ``v // interval``)."""
        store = self.store
        si = v // store.interval
        parts = []
        for di in range(store.num_intervals):
            if store.block_meta(di, si) is None:
                continue
            block, _hit = store.get(di, si)
            src = np.asarray(block.src)
            sel = src == v
            if sel.any():
                parts.append(np.asarray(block.dst)[sel])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    # -- partitioner surface -------------------------------------------
    def neighbor_partition_mask(
        self, owner: np.ndarray, num_partitions: int
    ) -> np.ndarray:
        """``(n, P)`` boolean mask: partition ``p`` holds a neighbor of
        vertex ``v`` (:meth:`Graph.neighbor_partition_mask
        <repro.graph.graph.Graph.neighbor_partition_mask>` in one
        streaming pass over all blocks) — what
        :class:`~repro.graph.partition.PartitionMap` lays mirrors out
        from."""
        n = self.num_vertices
        mask = np.zeros((n, num_partitions), dtype=bool)
        store = self.store
        for di in range(store.num_intervals):
            for meta in store.row_metas(di):
                block, _hit = store.get(di, meta.si)
                src = np.asarray(block.src)
                dst = np.asarray(block.dst)
                mask[src, owner[dst]] = True
                mask[dst, owner[src]] = True
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "directed" if self.directed else "undirected"
        return (
            f"BlockGraph({kind}, |V|={self.num_vertices}, |E|={self.num_edges}, "
            f"{self.store.total_bytes}B on disk)"
        )
