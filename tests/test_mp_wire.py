"""What crosses the mp wire, and what each barrier commits.

* A kernel request is the user functions, pickled once by the shipping
  pickler, plus plain data (id shares, edge mode, temps): the shipping
  pickler's per-object callback runs a number of times that does not
  grow with the graph.
* A commit batch is per-property ``(ids, values)`` column slices.
* A closed worker session is freed by reference counting (no cycle
  left for the cyclic collector).
* The barrier commits a list update column over a typed property as an
  array when every value is exactly the column's Python type; every
  observable result equals the value-by-value path's.
* Fork-started workers share the driver's shared-memory tracker.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlashEngine, random_graph
from repro.algorithms import bfs, pagerank
from repro.runtime import flashware as flashware_mod
from repro.runtime.distributed import shipping
from repro.runtime.distributed.executor import DistSession
from repro.runtime.flashware import UNSTAGED, Flashware

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Kernel requests: the shipping pickler sees the user functions only
# ---------------------------------------------------------------------------
def _persistent_ids_per_dense_step(n: int):
    calls = [0]
    per_step = []
    persistent_id = shipping._ShippingPickler.persistent_id
    run_dense = DistSession.run_edge_map_dense

    def counting(self, obj):
        calls[0] += 1
        return persistent_id(self, obj)

    def dense(self, *args, **kwargs):
        before = calls[0]
        try:
            return run_dense(self, *args, **kwargs)
        finally:
            per_step.append(calls[0] - before)

    graph = random_graph(n, 5 * n, seed=1)
    with mock.patch.object(shipping._ShippingPickler, "persistent_id", counting), \
            mock.patch.object(DistSession, "run_edge_map_dense", dense):
        with FlashEngine(graph, num_workers=2, executor="mp") as engine:
            pagerank(engine, max_iters=3, tolerance=0.0)
    return per_step


def test_persistent_id_calls_do_not_grow_with_the_graph():
    small = _persistent_ids_per_dense_step(200)
    large = _persistent_ids_per_dense_step(2000)
    assert len(small) == 3 and all(small)
    assert small == large


def test_captured_subset_ships_as_one_array():
    graph = random_graph(3000, 9000, seed=2)
    calls = {}
    persistent_id = shipping._ShippingPickler.persistent_id
    with FlashEngine(graph) as engine:
        for size in (10, 3000):
            subset = engine.subset(range(size))

            def counting(self, obj, size=size):
                calls[size] = calls.get(size, 0) + 1
                return persistent_id(self, obj)

            with mock.patch.object(
                shipping._ShippingPickler, "persistent_id", counting
            ):
                blob = shipping.dump_payload(lambda v, s=subset: v.id in s)
            fn = shipping.load_payload(blob, _FakeSession(engine))
            assert fn.__defaults__[0].ids() == list(range(size))
    assert calls[10] == calls[3000]


class _FakeSession:
    """The worker-session surface :func:`shipping.load_payload` resolves
    tokens against."""

    def __init__(self, engine):
        self.proxy = engine
        self.graph = engine.graph


# ---------------------------------------------------------------------------
# Commit batches: per-property column slices
# ---------------------------------------------------------------------------
def test_commit_batch_is_per_property_column_slices():
    graph = random_graph(40, 120, seed=3)
    batches = []
    request_many = DistSession._request_many

    def capture(self, items):
        batches.extend(payload for _w, op, _sid, payload in items if op == "commit")
        return request_many(self, items)

    with mock.patch.object(DistSession, "_request_many", capture), \
            FlashEngine(graph, num_workers=2, executor="mp") as engine:
        engine.add_property("x", 0)
        engine.add_property("d", 0.5)
        engine.add_property("tags", None)
        engine.flashware.mark_critical(["x", "d", "tags"])

        def write(v):
            v.x = v.id * 3
            v.d = v.id / 4
            v.tags = [v.id]
            return v

        engine.vertex_map(engine.V, None, write, label="write")
        values = {name: engine.values(name) for name in ("x", "d", "tags")}
    assert len(batches) == 2  # one batch per worker
    for batch, staled in batches:
        assert staled == []
        assert sorted(batch) == ["d", "tags", "x"]
        for name, (ids, column) in batch.items():
            assert all(type(v) is int for v in ids) and ids == sorted(set(ids))
            assert len(column) == len(ids)
            assert list(column) == [values[name][v] for v in ids]
        assert batch["x"][1].dtype == np.int64
        assert batch["d"][1].dtype == np.float64
        assert isinstance(batch["tags"][1], list)


# ---------------------------------------------------------------------------
# Closed sessions leave no cycle behind
# ---------------------------------------------------------------------------
def _worker_sessions(graph, action: str):
    """Live ``WorkerSession`` objects in every worker, counted with the
    cyclic collector as ``action`` leaves it."""

    def look(v, action=action):
        import gc

        from repro.runtime.distributed.worker import WorkerSession

        if action == "disable":
            gc.collect()
            gc.disable()
        v.sessions = sum(isinstance(o, WorkerSession) for o in gc.get_objects())
        if action == "enable":
            gc.enable()
        return v

    with FlashEngine(graph, num_workers=2, executor="mp") as engine:
        engine.add_property("sessions", 0)
        engine.vertex_map(engine.V, None, look, label="sessions")
        return set(engine.values("sessions"))


def test_closed_sessions_are_freed_without_the_cyclic_collector():
    graph = random_graph(60, 240, seed=4)
    assert _worker_sessions(graph, "disable") == {1}
    try:
        for i in range(8):
            with FlashEngine(graph, num_workers=2, executor="mp") as engine:
                if i % 2:
                    pagerank(engine, max_iters=3)
                else:
                    bfs(engine, root=0)
    finally:
        # only the probe's own session is alive
        assert _worker_sessions(graph, "enable") == {1}


# ---------------------------------------------------------------------------
# The barrier's typed path equals the value-by-value path
# ---------------------------------------------------------------------------
_N = 10
_DEFAULTS = {"f": 0.5, "i": 3, "b": False}
_ODD = st.sampled_from([None, UNSTAGED, float("nan"), 2**63, -(2**63) - 1, "s"])
_ANY = st.one_of(
    st.floats(allow_nan=True, width=64),
    st.integers(-5, 5),
    st.booleans(),
    _ODD,
)
_PURE = {
    "f": st.one_of(st.floats(-3, 3), st.just(float("nan")), st.just(0.5)),
    "i": st.one_of(st.integers(-3, 3), st.just(2**63 - 1), st.just(-(2**63))),
    "b": st.booleans(),
}


@st.composite
def _barriers(draw):
    ids = sorted(draw(st.sets(st.integers(0, _N - 1), min_size=1)))
    updates = {}
    for name in draw(st.sets(st.sampled_from(sorted(_DEFAULTS)), min_size=1)):
        value = draw(st.sampled_from([_PURE[name], _ANY]))
        updates[name] = draw(st.lists(value, min_size=len(ids), max_size=len(ids)))
    remote = draw(st.lists(st.sampled_from(ids), unique=True))
    pairs = (remote, [draw(st.integers(0, 1)) for _ in remote])
    critical = draw(st.sets(st.sampled_from(sorted(_DEFAULTS))))
    return ids, updates, pairs, critical


class _Recording(Flashware):
    def _after_commit(self, ids, updates, changed, broadcast_all, rec):
        self.changed = {name: mask.tolist() for name, mask in changed.items()}


def _typed(column):
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [(type(v).__name__, "nan" if isinstance(v, float) and math.isnan(v) else repr(v))
            for v in values]


def _commit(graph, ids, updates, pairs, critical):
    fw = _Recording(graph, num_workers=2)
    for name, default in _DEFAULTS.items():
        fw.state.add_property(name, default)
    fw.state.column("f")[::3] = float("nan")
    fw.mark_critical(critical)
    rec = fw.begin_superstep("vertex_map", "typed")
    fw.barrier(
        np.array(ids, dtype=np.int64),
        {name: list(column) for name, column in updates.items()},
        reduce_pairs=pairs,
    )
    return dict(
        columns={
            name: (type(fw.state.column(name)).__name__, _typed(fw.state.column(name)))
            for name in _DEFAULTS
        },
        changed=fw.changed,
        counts=(rec.sync_messages, rec.sync_values, rec.reduce_messages, rec.reduce_values),
    )


@settings(max_examples=150, deadline=None)
@given(_barriers())
def test_typed_barrier_equals_value_by_value(case):
    ids, updates, pairs, critical = case
    graph = random_graph(_N, 25, seed=5)
    typed = _commit(graph, ids, updates, pairs, critical)
    with mock.patch.object(
        flashware_mod, "_typed_column", lambda values, dtype: values
    ):
        by_value = _commit(graph, ids, updates, pairs, critical)
    assert typed == by_value


def test_typed_barrier_converts_only_exact_columns():
    to_array = flashware_mod._typed_column
    f, i, b = (np.dtype(t) for t in (np.float64, np.int64, np.bool_))
    assert isinstance(to_array([1.0, float("nan")], f), np.ndarray)
    assert isinstance(to_array([1, 2**63 - 1], i), np.ndarray)
    assert isinstance(to_array([True, False], b), np.ndarray)
    for values, dtype in (
        ([1.0, 2], f),           # an int into a float column
        ([1, True], i),          # a bool into an int column demotes
        ([1, 2**63], i),         # beyond int64
        ([1.0, UNSTAGED], f),
        ([None], f),
        ([1.0], i),
        ([], f),
    ):
        assert to_array(values, dtype) is values


# ---------------------------------------------------------------------------
# Fork-started workers share the driver's shared-memory tracker
# ---------------------------------------------------------------------------
def test_fork_start_leaks_no_shared_memory():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "REPRO_MP_START": "fork"}
    out = subprocess.run(
        [sys.executable, "-m", "repro", "run", "cc", "OR", "--scale", "0.08",
         "--executor", "mp", "--workers", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "leaked shared_memory" not in out.stderr, out.stderr
