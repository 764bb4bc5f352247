"""Block store on-disk format, LRU budget enforcement, and the
block-paged :class:`BlockGraph` adjacency surface."""

import ast
import json
import os

import numpy as np
import pytest

from repro import Graph, random_graph
from repro.algorithms import bfs, pagerank
from repro.core.engine import FlashEngine
from repro.graph.blocks import (
    BLOCK_FORMAT_VERSION,
    BlockGraph,
    BlockStore,
    _manifest_checksum,
    build_block_store,
    build_block_store_streamed,
    default_interval,
)


@pytest.fixture()
def graph():
    return random_graph(40, 120, seed=11)


@pytest.fixture()
def store(graph, tmp_path):
    s = build_block_store(graph, tmp_path / "blocks", interval=8)
    yield s
    s.close()


def _all_metas(store):
    return [m for di in range(store.num_intervals) for m in store.row_metas(di)]


def _block_path(store, meta):
    return store.directory / "blocks" / f"b{meta.di}_{meta.si}.blk"


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


# ---------------------------------------------------------------------------
# Manifest + shard layout
# ---------------------------------------------------------------------------
class TestFormat:
    def test_manifest_fields(self, graph, store, tmp_path):
        manifest = json.loads((tmp_path / "blocks" / "manifest.json").read_text())
        assert manifest["format_version"] == BLOCK_FORMAT_VERSION
        assert manifest["num_vertices"] == graph.num_vertices
        assert manifest["num_arcs"] == graph.num_arcs
        assert manifest["num_edges"] == graph.num_edges
        assert manifest["directed"] == graph.directed
        assert manifest["weighted"] == graph.weighted
        assert manifest["interval"] == 8
        assert manifest["num_intervals"] == 5
        assert "checksum" in manifest
        assert sum(b["arcs"] for b in manifest["blocks"]) == graph.num_arcs

    def test_blocks_replay_in_csr(self, graph, store):
        """Concatenating blocks row-major (di asc, si asc) replays the
        in-CSR arc sequence — the layout invariant every oocore kernel
        depends on for bit-identical reductions."""
        in_csr = graph.in_csr
        srcs, dsts, poss = [], [], []
        for di in range(store.num_intervals):
            for meta in store.row_metas(di):
                block, _ = store.get(meta.di, meta.si)
                srcs.append(np.array(block.src))
                dsts.append(np.array(block.dst))
                poss.append(np.array(block.pos))
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        pos = np.concatenate(poss)
        # Within a destination row the arcs of each target are ascending
        # by global in-CSR position; sorting rows by pos recovers the
        # exact in-CSR order.
        order = np.argsort(pos)
        assert np.array_equal(src[order], in_csr.indices)
        expected_dst = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), graph.in_degrees()
        )
        assert np.array_equal(dst[order], expected_dst)

    def test_checksum_tamper_rejected(self, graph, tmp_path):
        s = build_block_store(graph, tmp_path / "b", interval=8)
        s.close()
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["num_arcs"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="checksum"):
            BlockStore(tmp_path / "b")

    def test_version_mismatch_rejected(self, graph, tmp_path):
        s = build_block_store(graph, tmp_path / "b", interval=8)
        s.close()
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format v99 not supported"):
            BlockStore(tmp_path / "b")

    def test_retired_v1_rejected(self, graph, tmp_path):
        """A store that claims the retired three-shard format is refused
        at open even when its checksum is valid: there is one reader."""
        assert BLOCK_FORMAT_VERSION == 2
        build_block_store(graph, tmp_path / "b", interval=8).close()
        path = tmp_path / "b" / "manifest.json"
        core = json.loads(path.read_text())
        del core["checksum"]
        core["format_version"] = 1
        path.write_text(json.dumps({**core, "checksum": _manifest_checksum(core)}))
        with pytest.raises(ValueError, match=r"format v1 not supported \(expected v2\)"):
            BlockStore(tmp_path / "b")

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_one_raw_file_per_block(self, graph, tmp_path, weighted):
        """``b{di}_{si}.blk`` is ``src | dst | pos | [w]`` back to back:
        its size follows from the manifest alone, nothing else sits in
        ``blocks/``, and the columns come back as read-only views."""
        if weighted:
            graph = graph.with_random_weights(seed=7)
        store = build_block_store(graph, tmp_path / "b", interval=8)
        try:
            columns = 4 if weighted else 3
            metas = _all_metas(store)
            assert sorted(os.listdir(tmp_path / "b" / "blocks")) == sorted(
                _block_path(store, m).name for m in metas
            )
            pos, w = [], []
            for m in metas:
                size = _block_path(store, m).stat().st_size
                assert size == m.bytes == m.arcs * 8 * columns
                block, _ = store.get(m.di, m.si)
                for arr in (block.src, block.dst, block.pos):
                    assert arr.dtype == np.int64 and not arr.flags.writeable
                    assert len(arr) == m.arcs
                pos.append(np.array(block.pos))
                if weighted:
                    assert block.w.dtype == np.float64 and not block.w.flags.writeable
                    w.append(np.array(block.w))
                else:
                    assert block.w is None
            if weighted:
                order = np.argsort(np.concatenate(pos))
                expected = graph.arc_weights(graph.in_csr.arc_ids)
                assert np.concatenate(w)[order].tobytes() == expected.tobytes()
        finally:
            store.close()

    def test_default_interval_floor(self):
        assert default_interval(10) == 256
        assert default_interval(16 * 300) == 300


# ---------------------------------------------------------------------------
# Corrupt block files
# ---------------------------------------------------------------------------
def _truncate(path):
    os.truncate(path, path.stat().st_size - 8)


def _pad(path):
    with open(path, "ab") as f:
        f.write(b"\0" * 8)


class TestCorruptBlock:
    @pytest.mark.parametrize(
        "damage, message",
        [(_truncate, "is {found} bytes, manifest expects {expected}"),
         (_pad, "is {found} bytes, manifest expects {expected}"),
         (os.unlink, "is missing")],
        ids=["truncated", "padded", "missing"],
    )
    def test_bad_block_is_a_value_error(self, store, damage, message):
        """A block file that disagrees with the manifest fails its own
        ``get`` with a ``ValueError`` naming it, before anything is
        mapped, counted or charged; the rest of the store still works."""
        bad, good = _all_metas(store)[:2]
        path = _block_path(store, bad)
        damage(path)
        found = path.stat().st_size if path.exists() else None
        charged = []
        store.on_miss = charged.append
        store.get(good.di, good.si)
        fds = _open_fds()

        expected = message.format(found=found, expected=bad.bytes)
        for _ in range(3):
            with pytest.raises(ValueError, match=f"{path.name}.* {expected}"):
                store.get(bad.di, bad.si)
        assert charged == [good]
        assert store.blocks_loaded == 1 and store.mapped_bytes == good.bytes
        assert _open_fds() == fds
        _, hit = store.get(good.di, good.si)
        assert hit
        other = _all_metas(store)[2]
        block, hit = store.get(other.di, other.si)
        assert not hit and len(block.src) == other.arcs


# ---------------------------------------------------------------------------
# LRU budget
# ---------------------------------------------------------------------------
class TestBudget:
    def test_eviction_bounds_mapped_bytes(self, graph, tmp_path):
        store = build_block_store(graph, tmp_path / "b", interval=8)
        try:
            biggest = max(m.bytes for row in range(store.num_intervals)
                          for m in store.row_metas(row))
            store.budget = biggest  # at most one big block resident
            for di in range(store.num_intervals):
                for meta in store.row_metas(di):
                    store.get(meta.di, meta.si)
                    assert store.mapped_bytes <= max(biggest, meta.bytes)
            assert store.blocks_evicted > 0
        finally:
            store.close()

    def test_cache_hit_within_budget(self, store):
        meta = store.row_metas(0)[0]
        _, hit1 = store.get(meta.di, meta.si)
        _, hit2 = store.get(meta.di, meta.si)
        assert not hit1 and hit2
        assert store.blocks_loaded == 1

    def test_row_metas_is_a_copy_in_si_order(self, store):
        for di in range(store.num_intervals):
            row = store.row_metas(di)
            assert [m.di for m in row] == [di] * len(row)
            assert [m.si for m in row] == sorted(m.si for m in row)
            kept = list(row)
            row.clear()  # the caller's list, not the store's
            assert store.row_metas(di) == kept
        assert store.row_metas(store.num_intervals) == []
        assert len(_all_metas(store)) == len(store._meta)

    def test_cold_gets_hold_one_mapping(self, store):
        """Under a 1-byte budget every get is a miss that maps one file
        and unmaps the previous one: descriptors and mapped bytes stay
        flat however many blocks stream through."""
        a, b = _all_metas(store)[:2]
        biggest = max(m.bytes for m in _all_metas(store))
        store.budget = 1
        store.get(a.di, a.si)
        baseline = _open_fds()
        for i in range(200):
            meta = (b, a)[i % 2]
            _, hit = store.get(meta.di, meta.si)
            assert not hit
            assert _open_fds() == baseline
            assert store.mapped_bytes <= biggest
        assert store.blocks_loaded == 201 and store.blocks_evicted == 200
        store.close()
        assert store.mapped_bytes == 0
        assert _open_fds() == baseline - 1

    def test_miss_path_never_parses_npy(self, graph, monkeypatch):
        """Structural guard for the hot path: a cold get, an eviction and
        a whole oocore BFS + PageRank go through without one ``.npy``
        header being opened or parsed."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the block path parsed an .npy header")

        # in-memory references first: the same kernels also pull in
        # NumPy's lazy submodules, whose import calls ast.literal_eval
        resident = dict(num_workers=3, backend="vectorized")
        levels = bfs(FlashEngine(graph, **resident), root=0).values
        ranks = pagerank(FlashEngine(graph, **resident), max_iters=5).values
        monkeypatch.setattr(np, "load", forbidden)
        monkeypatch.setattr(np.lib.format, "open_memmap", forbidden)
        monkeypatch.setattr(ast, "literal_eval", forbidden)
        with FlashEngine(graph, num_workers=3, backend="oocore",
                         oocore_budget=1, oocore_interval=8) as eng:
            store = eng._col.arcs.store
            a, b = _all_metas(store)[:2]
            assert store.get(a.di, a.si)[1] is False
            assert store.get(b.di, b.si)[1] is False
            assert store.blocks_evicted == 1
            assert bfs(eng, root=0).values == levels
            assert pagerank(eng, max_iters=5).values == ranks
            assert eng.metrics.backend_choices == {"oocore": eng.metrics.num_supersteps}

    def test_close_idempotent(self, graph, tmp_path):
        store = build_block_store(graph, tmp_path / "b", interval=8)
        store.get(0, 0)
        store.close()
        assert store.closed
        store.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            store.get(0, 0)


# ---------------------------------------------------------------------------
# BlockGraph adjacency surface
# ---------------------------------------------------------------------------
class TestBlockGraph:
    def test_adjacency_matches_graph(self, graph, store):
        bg = BlockGraph(store)
        assert bg.num_vertices == graph.num_vertices
        assert bg.num_arcs == graph.num_arcs
        assert bg.num_edges == graph.num_edges
        assert np.array_equal(bg.out_degrees(), graph.out_degrees())
        assert np.array_equal(bg.in_degrees(), graph.in_degrees())
        for v in range(graph.num_vertices):
            assert np.array_equal(np.sort(bg.in_neighbors(v)),
                                  np.sort(graph.in_neighbors(v))), v
            assert np.array_equal(np.sort(bg.out_neighbors(v)),
                                  np.sort(graph.out_neighbors(v))), v

    def test_directed_adjacency(self, tmp_path):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)], directed=True)
        store = build_block_store(g, tmp_path / "b", interval=2)
        try:
            bg = BlockGraph(store)
            assert bg.directed
            for v in range(3):
                assert np.array_equal(np.sort(bg.out_neighbors(v)),
                                      np.sort(g.out_neighbors(v)))
                assert np.array_equal(np.sort(bg.in_neighbors(v)),
                                      np.sort(g.in_neighbors(v)))
        finally:
            store.close()

    def test_neighbor_partition_mask(self, graph, store):
        bg = BlockGraph(store)
        owner = np.arange(graph.num_vertices, dtype=np.int64) % 3
        mask = bg.neighbor_partition_mask(owner, 3)
        for v in range(graph.num_vertices):
            nbrs = set(owner[graph.out_neighbors(v)].tolist())
            nbrs.update(owner[graph.in_neighbors(v)].tolist())
            assert set(np.flatnonzero(mask[v]).tolist()) == nbrs, v


# ---------------------------------------------------------------------------
# Streamed (never-resident) builder
# ---------------------------------------------------------------------------
class TestStreamedBuilder:
    def test_matches_resident_builder(self, graph, tmp_path):
        edges = graph.edges()
        src = np.array([s for s, _ in edges], dtype=np.int64)
        dst = np.array([d for _, d in edges], dtype=np.int64)

        def chunks():
            for lo in range(0, len(edges), 17):
                yield src[lo:lo + 17], dst[lo:lo + 17]

        a = build_block_store(graph, tmp_path / "resident", interval=8)
        b = build_block_store_streamed(
            tmp_path / "streamed", graph.num_vertices, chunks,
            directed=graph.directed, interval=8,
        )
        try:
            assert b.num_intervals == a.num_intervals
            assert np.array_equal(b.out_degrees(), a.out_degrees())
            assert np.array_equal(b.in_degrees(), a.in_degrees())
            for di in range(a.num_intervals):
                metas_a, metas_b = a.row_metas(di), b.row_metas(di)
                assert [(m.di, m.si, m.arcs) for m in metas_a] == \
                       [(m.di, m.si, m.arcs) for m in metas_b]
                for meta in metas_a:
                    ba, _ = a.get(meta.di, meta.si)
                    bb, _ = b.get(meta.di, meta.si)
                    assert np.array_equal(ba.src, bb.src)
                    assert np.array_equal(ba.dst, bb.dst)
                    assert np.array_equal(ba.pos, bb.pos)
        finally:
            a.close()
            b.close()

    def test_spill_files_cleaned_up(self, tmp_path):
        def chunks():
            yield (np.array([0, 1, 2], dtype=np.int64),
                   np.array([1, 2, 0], dtype=np.int64))

        store = build_block_store_streamed(tmp_path / "b", 3, chunks, interval=2)
        try:
            assert not (tmp_path / "b" / "_rows").exists()
        finally:
            store.close()
