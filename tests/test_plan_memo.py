"""The engine's kernel plan memo: each kernel is analysed once per
engine under ``analysis="static"`` / ``"compile"``, and nothing
observable changes — values, charged metrics, critical sets,
diagnostics and lint captures all equal a run that re-analyses every
superstep (the memo switched off).  No processes are started."""

from __future__ import annotations

import json
import pytest

import repro.analysis.staticpass as staticpass
import repro.core.analysis as core_analysis
import repro.core.engine as engine_mod
from repro import FlashEngine, ctrue
from repro.algorithms import bc, bfs, sssp
from repro.algorithms.kcore import kcore_basic
from repro.analysis.staticpass import lint_apps, summarize
from repro.graph.generators import road_network
from repro.runtime.faults import FaultPlan
from repro.runtime.recovery import PeriodicCheckpointPolicy, run_with_recovery


@pytest.fixture(scope="module")
def road():
    return road_network(30, 30, seed=3)


def _memo_off(monkeypatch):
    """Every superstep takes the full analysis path and nothing is
    memoized — how the engine ran before it had a plan memo (the engine
    consults the capture flag only for the memo)."""
    monkeypatch.setattr(engine_mod, "capturing", lambda: True)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _kernels(engine):
    """Distinct ``(kind, label)`` of the engine's kernel supersteps."""
    return {
        (r.kind, r.label) for r in engine.metrics.records if r.kind != "collect"
    }


def _observe(engine, result):
    return (
        list(result.values),
        engine.metrics.summary(),
        sorted(engine.flashware.critical_properties),
        sorted(engine.diagnostics),
    )


@pytest.mark.parametrize("algorithm", [bfs, sssp])
def test_each_kernel_analysed_once(monkeypatch, road, algorithm):
    analysed = _counting(monkeypatch, staticpass, "analyze_kernel")
    checked = _counting(monkeypatch, staticpass, "check_spec")
    engine = FlashEngine(road, num_workers=4, backend="vectorized", analysis="static")
    algorithm(engine, root=0)
    kernels = _kernels(engine)
    assert engine.metrics.num_supersteps > 3 * len(kernels)
    assert len(analysed) == len(kernels)
    # each (kind, spec) pair is validated once; spec-less kernels never
    assert len(checked) <= len(kernels)
    assert len({(kind, id(spec)) for kind, spec, _ in checked}) == len(checked)
    assert set(engine._plans) == kernels


@pytest.mark.parametrize("backend", ["interp", "vectorized"])
@pytest.mark.parametrize("analysis", ["static", "compile"])
def test_memo_is_invisible(monkeypatch, road, backend, analysis):
    def run():
        engine = FlashEngine(road, num_workers=4, backend=backend, analysis=analysis)
        return _observe(engine, sssp(engine, root=0)) + (engine.kernel_plan,)

    memo = run()
    _memo_off(monkeypatch)
    assert memo == run()


def _late_critical_program(engine):
    """A sparse kernel whose static verdict names ``b`` (a target write
    on a branch never taken) before ``b`` exists; ``b`` is declared and
    changed without syncing, and the kernel's next superstep must
    promote it and pay that sync debt."""
    engine.add_property("x", 0)

    def upd(s, d):
        if s.x > 10**6:
            d.b = 1
        d.x = s.x + 1
        return d

    def red(t, d):
        d.x = t.x
        return d

    def mark(v):
        v.b = v.id
        return v

    frontier = engine.subset([0, 1, 2])
    engine.edge_map_sparse(frontier, engine.E, ctrue, upd, ctrue, red, label="late")
    assert not engine.flashware.is_critical("b")
    engine.add_property("b", 0)
    engine.vertex_map(engine.V, ctrue, mark, label="late:mark")
    engine.edge_map_sparse(frontier, engine.E, ctrue, upd, ctrue, red, label="late")
    return engine.values("x")


def test_property_declared_after_first_superstep(monkeypatch, road):
    def run():
        engine = FlashEngine(road, num_workers=4, backend="interp", analysis="static")
        values = _late_critical_program(engine)
        first, *_, last = engine.metrics.records
        return (
            values,
            engine.metrics.summary(),
            engine.flashware.critical_properties,
            (first.sync_values, last.sync_values),
        )

    analysed = _counting(monkeypatch, staticpass, "analyze_kernel")
    memo = run()
    assert "b" in memo[2]
    # the "late" kernel was analysed once, on its first superstep
    assert len(analysed) == 2
    _memo_off(monkeypatch)
    assert memo == run()
    # same frontier both times: the second superstep also paid b's debt
    first_sync, last_sync = memo[3]
    assert last_sync > first_sync + 100


def test_recovery_replay_matches(monkeypatch, road):
    def run():
        engine = FlashEngine(road, num_workers=3, backend="vectorized", analysis="static")
        report = run_with_recovery(
            engine,
            lambda eng: bfs(eng, root=0),
            plan=FaultPlan.hazard_rate(0.05, seed=4, max_failures=2),
            policy=PeriodicCheckpointPolicy(3),
        )
        return (
            list(report.result.values),
            engine.metrics.summary(),
            sorted(engine.flashware.critical_properties),
            report.stats.failures,
        )

    memo = run()
    assert memo[3] > 0
    _memo_off(monkeypatch)
    assert memo == run()


@pytest.mark.parametrize("analysis", ["static", "compile"])
@pytest.mark.parametrize(
    "algorithm", [lambda eng: bc(eng, root=0), lambda eng: kcore_basic(eng)],
    ids=["bc", "kcore"],
)
def test_fresh_binds_keep_one_slot_per_label(monkeypatch, road, algorithm, analysis):
    def run():
        engine = FlashEngine(road, num_workers=4, backend="vectorized", analysis=analysis)
        return engine, _observe(engine, algorithm(engine))

    engine, memo = run()
    kernels = _kernels(engine)
    assert set(engine._plans) <= kernels
    _memo_off(monkeypatch)
    assert memo == run()[1]


def test_check_mode_traces_every_superstep(monkeypatch, road):
    analysed = _counting(monkeypatch, staticpass, "analyze_kernel")
    traced = _counting(monkeypatch, core_analysis, "classify_events")
    engine = FlashEngine(road, num_workers=4, backend="vectorized", analysis="check")
    bfs(engine, root=0)
    supersteps = engine.metrics.num_supersteps
    assert supersteps > 3 * len(_kernels(engine))
    assert len(analysed) == supersteps
    assert len(traced) >= supersteps - 1  # the last frontier may have no arcs
    assert not engine._plans


class _OpaqueStep:
    """A callable object: no source for the static pass to read."""

    def __call__(self, s, d):
        d.x = s.x + 1
        return d


def test_incomplete_kernel_traces_every_superstep(monkeypatch, road):
    traced = _counting(monkeypatch, core_analysis, "classify_events")
    engine = FlashEngine(road, num_workers=4, backend="interp", analysis="static")
    engine.add_property("x", 0)
    step, frontier = _OpaqueStep(), engine.subset([0, 1])
    for _ in range(3):
        engine.edge_map_sparse(frontier, engine.E, ctrue, step, ctrue, step, label="opaque")
    assert len(traced) == 3
    assert not engine._plans
    assert any("incomplete" in d for d in engine.diagnostics)


def test_lint_capture_unchanged(monkeypatch):
    with_memo = json.dumps(summarize(lint_apps()), sort_keys=True)
    _memo_off(monkeypatch)
    assert with_memo == json.dumps(summarize(lint_apps()), sort_keys=True)


def test_capture_bypasses_existing_slots(road):
    """A slot built before a capture started must not hide the kernel
    from the capture."""
    engine = FlashEngine(road, num_workers=4, backend="interp", analysis="static")
    engine.add_property("x", 0)

    def step(s, d):
        d.x = s.x + 1
        return d

    def keep(t, d):
        d.x = t.x
        return d

    frontier = engine.subset([0])
    engine.edge_map_sparse(frontier, engine.E, ctrue, step, ctrue, keep, label="cap")
    assert ("edge_map_sparse", "cap") in engine._plans
    with staticpass.capture_program() as capture:
        engine.edge_map_sparse(frontier, engine.E, ctrue, step, ctrue, keep, label="cap")
    assert [(r.kind, r.label) for r in capture.reports] == [("edge_map_sparse", "cap")]
