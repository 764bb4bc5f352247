"""Regression tests for picklable vertex-state default factories.

The distributed executor re-creates property columns on worker
processes from the parent's factories, and serializing checkpoint
stores round-trip them through pickle — so the factories behind
``add_property(default=...)`` must not be lambdas (which pickle
rejects).  These tests pin the :class:`ConstantFactory` /
:class:`CopyFactory` contract.
"""

import copy
import pickle

import pytest

from repro.runtime.state import (
    ConstantFactory,
    CopyFactory,
    VertexState,
    _default_copier,
)


def test_constant_factory_pickle_roundtrip():
    f = ConstantFactory(42)
    g = pickle.loads(pickle.dumps(f))
    assert isinstance(g, ConstantFactory)
    assert g() == 42


def test_copy_factory_pickle_roundtrip():
    f = CopyFactory({1, 2})
    g = pickle.loads(pickle.dumps(f))
    assert isinstance(g, CopyFactory)
    out = g()
    assert out == {1, 2}
    # Each call yields fresh storage: vertices must never share a set.
    assert g() is not out


def test_factories_deepcopy():
    c = copy.deepcopy(ConstantFactory("x"))
    assert c() == "x"
    p = copy.deepcopy(CopyFactory([1]))
    assert p() == [1]


@pytest.mark.parametrize(
    "default, expected_type",
    [
        (0, ConstantFactory),
        (None, ConstantFactory),
        ("s", ConstantFactory),
        (frozenset({1}), ConstantFactory),
        (set(), CopyFactory),
        ([], CopyFactory),
        ({}, CopyFactory),
        (bytearray(b"x"), CopyFactory),
    ],
)
def test_default_copier_picks_picklable_factory(default, expected_type):
    factory = _default_copier(default)
    assert isinstance(factory, expected_type)
    assert pickle.loads(pickle.dumps(factory))() == factory()


def test_default_factories_ship_across_pickle():
    """``add_property(default=...)`` must produce factories that survive
    pickling — the regression that broke shipping property declarations
    to worker processes."""
    state = VertexState(3)
    state.add_property("dist", default=-1)
    state.add_property("seen", default=set())
    for name in ("dist", "seen"):
        factory = pickle.loads(pickle.dumps(state.factory(name)))
        assert factory() == state.factory(name)()


def test_vertex_state_pickle_roundtrip():
    state = VertexState(4)
    state.add_property("cid", default=0)
    state.add_property("tags", default=set())
    state.set(2, "cid", 7)
    state.get(1, "tags").add("a")
    clone = pickle.loads(pickle.dumps(state))
    assert clone.get(2, "cid") == 7
    assert clone.get(1, "tags") == {"a"}
    assert clone.get(0, "tags") == set()
    # Restored mutable columns stay unshared between vertices.
    clone.get(0, "tags").add("b")
    assert clone.get(3, "tags") == set()
    # And the factory still works for reset.
    clone.reset_property("cid")
    assert clone.column("cid").tolist() == [0, 0, 0, 0]


def test_typed_vertex_state_pickle_roundtrip():
    state = VertexState(3)
    state.add_property("d", default=1.5)
    state.add_property("bag", default=[])
    state.set(0, "d", 2.5)
    clone = pickle.loads(pickle.dumps(state))
    assert clone.get(0, "d") == 2.5
    assert clone.get(2, "d") == 1.5
    assert clone.get(1, "bag") == []


def test_install_column_fallback_factory_is_picklable():
    state = VertexState(2)
    state.install_column("restored", [5, 6])
    factory = pickle.loads(pickle.dumps(state.factory("restored")))
    assert factory() is None
