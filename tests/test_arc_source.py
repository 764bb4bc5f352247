"""The arc-source seam (``repro.runtime.vectorized.arcs``): the resident
CSR and the block store must hand the columnar kernels the same arcs in
the same per-target order — the layout invariant every bit-identity
claim of the out-of-core backend rests on — and the block provider must
never read a block whose source interval holds no active vertex.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph
from repro.core.engine import FlashEngine
from repro.runtime.vectorized.arcs import ResidentArcs
from repro.runtime.vectorized.kernels import ColumnarContext


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 18))
    directed = draw(st.booleans())
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60,
    ))
    if not directed:  # one edge per unordered pair: no parallel arcs
        pairs = {(min(s, d), max(s, d)) for s, d in pairs}
    edges = sorted(pairs)
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(
            st.floats(0.5, 9.5), min_size=len(edges), max_size=len(edges),
        ))
    return Graph(n, edges, directed=directed, weights=weights)


@st.composite
def cases(draw):
    graph = draw(graphs())
    n = graph.num_vertices
    interval = draw(st.sampled_from([1, 3, 8, n]))
    frontier = draw(st.one_of(
        st.just([]),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=1),
        st.lists(st.integers(0, n - 1), unique=True),
        st.just(list(range(n))),
    ))
    eligible = draw(st.one_of(
        st.none(), st.lists(st.booleans(), min_size=n, max_size=n),
    ))
    return graph, interval, sorted(frontier), eligible


def _drain(batches, with_pos):
    """Concatenate a provider's batches; ``w`` / ``pos`` are read while
    the batch is current (a block batch is only valid until the next)."""
    cols = {"src": [], "dst": [], "w": [], "row": []}
    if with_pos:
        cols["pos"] = []
    for batch in batches:
        assert len(batch) > 0 or batch.row == 0  # block batches are never empty
        cols["src"].append(batch.src)
        cols["dst"].append(batch.dst)
        cols["w"].append(batch.w)
        cols["row"].append(np.full(len(batch), batch.row))
        if with_pos:
            # a pull batch is (dst, src)-sorted on its own: the dense
            # kernels find per-target runs without sorting
            assert np.array_equal(
                np.lexsort((batch.src, batch.dst)), np.arange(len(batch))
            )
            cols["pos"].append(batch.pos)
    return {
        name: np.concatenate(parts) if parts else np.empty(0)
        for name, parts in cols.items()
    }


@settings(max_examples=120, deadline=None)
@given(cases())
def test_block_batches_replay_the_resident_batch(case):
    graph, interval, frontier, eligible = case
    U = np.asarray(frontier, dtype=np.int64)
    if eligible is not None:
        eligible = np.asarray(eligible, dtype=bool)
    with FlashEngine(graph, num_workers=2, backend="oocore",
                     oocore_interval=interval) as eng:
        ctx = ColumnarContext(eng)
        state = eng.flashware.state
        blocks = eng._col.arcs
        resident = ResidentArcs(graph)

        got = []
        get = blocks.store.get
        blocks.store.get = lambda di, si: got.append(si) or get(di, si)

        # Each target's arcs arrive in ascending source order from both
        # providers, so one stable sort by target — what the kernels'
        # per-target folds amount to — must give identical arrays.
        def by_target(cols, names):
            order = np.argsort(cols["dst"], kind="stable")
            out = {name: cols[name][order] for name in names}
            assert np.array_equal(  # ascending source within each target
                np.lexsort((out["src"], out["dst"])), np.arange(len(order))
            )
            return out

        # pull: the in-CSR sequence, positions included
        names = ("src", "dst", "pos", "w")
        want = _drain(resident.pull(ctx, state, U, eligible), with_pos=True)
        have = _drain(blocks.pull(ctx, state, U, eligible), with_pos=True)
        assert np.array_equal(want["pos"], np.sort(want["pos"]))
        assert np.array_equal(have["row"], np.sort(have["row"]))
        assert np.array_equal(have["row"], have["dst"] // interval)
        want, have = by_target(want, names), by_target(have, names)
        for name in names:
            assert np.array_equal(have[name], want[name]), name
        assert np.array_equal(have["pos"], np.sort(have["pos"]))

        # push: the same arcs in the same per-target order, rows ascending
        names = ("src", "dst", "w")
        want = _drain(resident.push(ctx, state, U), with_pos=False)
        have = _drain(blocks.push(ctx, state, U), with_pos=False)
        assert np.array_equal(have["row"], np.sort(have["row"]))
        assert np.array_equal(have["row"], have["dst"] // interval)
        want, have = by_target(want, names), by_target(have, names)
        for name in names:
            assert np.array_equal(have[name], want[name]), name

        # frontier skipping: only source intervals with an active vertex
        active = set((U // interval).tolist())
        assert set(got) <= active


def test_push_batch_has_no_scan_position():
    graph = Graph(3, [(0, 1), (1, 2)])
    with FlashEngine(graph, num_workers=2, backend="vectorized") as eng:
        ctx = ColumnarContext(eng)
        (batch,) = ResidentArcs(graph).push(
            ctx, eng.flashware.state, np.array([1], dtype=np.int64)
        )
        assert batch.src.tolist() == [1, 1] and batch.dst.tolist() == [0, 2]
        with pytest.raises(TypeError):
            batch.pos


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(1, 7))
def test_resident_pull_slices_concatenate_to_the_whole_pull(case, batch_arcs):
    """``ResidentArcs.pull`` streams the in-CSR in bounded slices (so a
    superstep's temporaries are O(batch), not O(|arcs|)); the slices are
    the one-batch pull cut at multiples of the batch size, nothing more."""
    from repro.runtime.vectorized import arcs

    graph, _interval, frontier, eligible = case
    U = np.asarray(frontier, dtype=np.int64)
    if eligible is not None:
        eligible = np.asarray(eligible, dtype=bool)
    with FlashEngine(graph, num_workers=2, backend="vectorized") as eng:
        ctx = ColumnarContext(eng)
        state = eng.flashware.state
        whole = _drain(ResidentArcs(graph).pull(ctx, state, U, eligible), with_pos=True)
        default = arcs.PULL_BATCH_ARCS
        arcs.PULL_BATCH_ARCS = batch_arcs
        try:
            batches = list(ResidentArcs(graph).pull(ctx, state, U, eligible))
            for batch in batches:  # never empty, never across a slice boundary
                assert len(batch) > 0
                assert len(set((batch.pos // batch_arcs).tolist())) == 1
            sliced = _drain(iter(batches), with_pos=True)
        finally:
            arcs.PULL_BATCH_ARCS = default
    for name in ("src", "dst", "pos", "w"):
        assert np.array_equal(sliced[name], whole[name]), name


@pytest.mark.parametrize("app", ["bfs", "cc", "kc", "lpa", "bcc"])
def test_small_pull_batches_leave_results_and_charges_unchanged(app, monkeypatch):
    """The dense kernels (full, write-once, gather) fold over however
    many batches arrive: a batch size far below the graph's arc count
    must not move a value or a charge."""
    from repro import random_graph
    from repro.runtime.vectorized import arcs
    from repro.suite import prepare_graph, run_app

    graph = prepare_graph(app, random_graph(40, 120, seed=11))
    oracle = run_app("flash", app, graph, num_workers=3, backend="interp")
    monkeypatch.setattr(arcs, "PULL_BATCH_ARCS", 7)
    run = run_app("flash", app, graph, num_workers=3, backend="vectorized")
    assert run.values == oracle.values
    assert run.metrics.summary() == oracle.metrics.summary()
    assert run.metrics.backend_choices.get("vectorized", 0) > 0
