"""Tests for the vertexSubset type and its set algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlashEngine, Graph


@pytest.fixture
def engine():
    return FlashEngine(Graph.from_edges([(i, i + 1) for i in range(9)]), num_workers=2)


class TestBasics:
    def test_size_and_len(self, engine):
        u = engine.subset([1, 3, 5])
        assert u.size() == 3
        assert len(u) == 3
        assert bool(u)
        assert not engine.empty()

    def test_iteration_sorted(self, engine):
        u = engine.subset([5, 1, 3])
        assert list(u) == [1, 3, 5]
        assert u.ids() == [1, 3, 5]

    def test_contains(self, engine):
        u = engine.subset([2, 4])
        assert 2 in u and 3 not in u
        assert u.contain(4) and not u.contain(0)

    def test_duplicates_collapse(self, engine):
        assert engine.subset([1, 1, 1]).size() == 1

    def test_out_of_range_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.subset([100])
        with pytest.raises(ValueError):
            engine.subset([-1])

    def test_v_covers_all(self, engine):
        assert engine.V.size() == engine.graph.num_vertices


class TestAlgebra:
    def test_union(self, engine):
        assert list(engine.subset([1]).union(engine.subset([2]))) == [1, 2]
        assert list(engine.subset([1]) | engine.subset([2])) == [1, 2]

    def test_minus(self, engine):
        assert list(engine.subset([1, 2, 3]).minus(engine.subset([2]))) == [1, 3]
        assert list(engine.subset([1, 2]) - engine.subset([1, 2])) == []

    def test_intersect(self, engine):
        assert list(engine.subset([1, 2, 3]) & engine.subset([2, 3, 4])) == [2, 3]

    def test_add_is_persistent(self, engine):
        u = engine.subset([1])
        w = u.add(5)
        assert list(w) == [1, 5]
        assert list(u) == [1]  # original untouched

    def test_equality_and_hash(self, engine):
        a = engine.subset([1, 2])
        b = engine.subset([2, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != engine.subset([1])

    def test_cross_engine_combination_rejected(self, engine):
        other = FlashEngine(Graph.from_edges([(0, 1)]), num_workers=1)
        with pytest.raises(ValueError):
            engine.subset([1]).union(other.subset([0]))

    def test_non_subset_operand_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.subset([1]).union({2})


ids = st.sets(st.integers(0, 9), max_size=10)


@settings(max_examples=60, deadline=None)
@given(a=ids, b=ids, c=ids)
def test_set_algebra_laws(a, b, c):
    """Property: subset algebra matches Python-set algebra."""
    eng = FlashEngine(Graph.from_edges([(i, i + 1) for i in range(9)]), num_workers=1)
    A, B, C = eng.subset(a), eng.subset(b), eng.subset(c)
    assert set(A | B) == a | b
    assert set(A - B) == a - b
    assert set(A & B) == a & b
    # Distributivity and De-Morgan-ish identities.
    assert (A & (B | C)) == ((A & B) | (A & C))
    assert (A - (B | C)) == ((A - B) & (A - C))


# ---------------------------------------------------------------------------
# The two births: an integer array / range is adopted as one sorted
# read-only int64 array; any other iterable takes the frozenset path.
# Both must be indistinguishable through the public surface.
# ---------------------------------------------------------------------------
N = 10
multisets = st.lists(st.integers(0, N - 1), max_size=2 * N)


def _engine():
    return FlashEngine(Graph.from_edges([(i, i + 1) for i in range(N - 1)]), num_workers=1)


def _array_births(eng, values):
    """``values`` as every array form the constructor adopts."""
    raw = np.array(values, dtype=np.int64)
    for arr in (raw.copy(), np.sort(raw), np.unique(raw), raw.astype(np.int32)):
        born = eng.subset(arr)
        assert born._sorted is None and born._ids is None  # array-born, no set yet
        yield born


@settings(max_examples=60, deadline=None)
@given(a=multisets, b=multisets, probe=st.integers(-2, N + 1))
def test_array_and_list_births_agree(a, b, probe):
    eng = _engine()
    oracle = frozenset(a)
    listed = eng.subset(list(a))
    assert listed._sorted is not None  # iterable-born keeps today's form
    peers = [
        (eng.subset(list(b)), frozenset(b)),
        (eng.subset(np.array(b, dtype=np.int64)), frozenset(b)),
    ]
    for born in _array_births(eng, a):
        assert not born.as_array().flags.writeable
        assert born.as_array().dtype == np.int64
        assert born.size() == len(born) == len(oracle)
        assert bool(born) == bool(oracle)
        assert list(born) == list(listed) == sorted(oracle)
        assert born.ids() == listed.ids()
        assert all(type(v) is int for v in born)
        assert born == listed and listed == born
        assert hash(born) == hash(listed)
        assert (probe in born) == (probe in oracle)
        assert born.contain(probe) == listed.contain(probe) == (probe in oracle)
        if 0 <= probe < N:
            assert born.add(probe) == listed.add(probe)
            assert set(born.add(probe)) == oracle | {probe}
        for peer, peer_ids in peers:
            for left, right, lo, ro in (
                (born, peer, oracle, peer_ids),
                (peer, born, peer_ids, oracle),
            ):
                assert set(left | right) == lo | ro
                assert set(left - right) == lo - ro
                assert set(left & right) == lo & ro
                assert list(left | right) == sorted(lo | ro)


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(0, N - 1), stop=st.integers(-1, N),
    step=st.integers(-3, 3).filter(bool),
)
def test_range_birth(start, stop, step):
    eng = _engine()
    r = range(start, stop, step)
    born = eng.subset(r)
    assert born._sorted is None
    assert born == eng.subset(list(r))
    assert list(born) == sorted(r)


@pytest.mark.parametrize(
    "bad", [[100], [-1], [3, N], [-5, 2], range(-1, 3), range(5, N + 1)],
    ids=repr,
)
def test_out_of_range_same_error_from_both_births(engine, bad):
    with pytest.raises(ValueError) as from_list:
        engine.subset(list(bad))
    for dtype in (np.int64, np.int32):
        with pytest.raises(ValueError) as from_array:
            engine.subset(np.array(list(bad), dtype=dtype))
        assert str(from_array.value) == str(from_list.value)
    if isinstance(bad, range):
        with pytest.raises(ValueError) as from_range:
            engine.subset(bad)
        assert str(from_range.value) == str(from_list.value)


def test_adopted_array_is_frozen(engine):
    arr = np.array([1, 3, 5])
    u = engine.subset(arr)
    assert u.as_array() is arr  # adopted, not copied
    with pytest.raises(ValueError):
        arr[0] = 7
    assert list(u) == [1, 3, 5]
    derived = engine.subset([4, 2]).as_array()
    assert derived.tolist() == [2, 4] and not derived.flags.writeable


def test_non_integer_arrays_take_the_iterable_path(engine):
    u = engine.subset(np.array([2.0, 1.0]))
    assert u._sorted == [1, 2] and u == engine.subset([1, 2])
    assert engine.subset(np.array([True, False]))._sorted == [0, 1]
    with pytest.raises(ValueError):
        engine.subset(np.array([2**63], dtype=np.uint64))
