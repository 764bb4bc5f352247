"""Fault injection + recovery orchestration.

The headline invariant (the acceptance bar for the fault-tolerance
layer): for every Table IV application on both execution backends, a run
with a seeded mid-run worker kill — recovered automatically via
checkpoint rollback and deterministic replay — produces final vertex
values identical to the fault-free run, with the replayed work accounted
separately from first-attempt work.
"""

import math

import numpy as np
import pytest

from repro import FlashEngine, Graph, ctrue, load_dataset, random_graph
from repro.__main__ import main
from repro.algorithms import bfs
from repro.runtime.faults import FaultPlan, FaultSpec, WorkerFailure
from repro.runtime.metrics import SuperstepRecord
from repro.runtime.recovery import (
    AdaptiveCheckpointPolicy,
    CheckpointPolicy,
    CorruptCheckpointError,
    DiskCheckpointStore,
    MemoryCheckpointStore,
    PeriodicCheckpointPolicy,
    RecoveryExhausted,
    make_policy,
    run_with_recovery,
    snapshot_volume,
)
from repro.suite import APPS, DIRECTED_APPS, _FLASH_VARIANTS, prepare_graph, run_app


# ---------------------------------------------------------------------------
# Fault plans and injectors
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_pinned(self):
        plan = FaultPlan.parse("4")
        assert plan.faults == (FaultSpec(4),)
        assert plan.hazard == 0.0

    def test_parse_pinned_workers(self):
        plan = FaultPlan.parse("3:0,9:2")
        assert plan.faults == (FaultSpec(3, 0), FaultSpec(9, 2))

    def test_parse_hazard(self):
        plan = FaultPlan.parse("hazard=0.05,seed=7,max=2")
        assert plan.faults == ()
        assert plan.hazard == 0.05
        assert plan.seed == 7
        assert plan.max_hazard_failures == 2

    def test_parse_unknown_option_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("frequency=2")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(-1)
        with pytest.raises(ValueError):
            FaultSpec(0, phase="mid")
        with pytest.raises(ValueError):
            FaultPlan(hazard=1.5)

    def test_describe(self):
        assert FaultPlan.at(4, worker=1).describe() == "s4:w1"
        assert FaultPlan.at(4).describe() == "s4:wauto"
        assert "hazard=0.1" in FaultPlan.hazard_rate(0.1, seed=3).describe()
        assert FaultPlan().describe() == "none"


def _drive(plan, supersteps=200, num_workers=4):
    """Poll an injector through a superstep schedule; collect failures."""
    injector = plan.injector()
    fired = []
    for s in range(supersteps):
        for phase in ("begin", "barrier"):
            try:
                injector.poll(s, phase, num_workers)
            except WorkerFailure as failure:
                fired.append((failure.superstep, failure.worker, failure.phase))
    return injector, fired


class TestFaultInjector:
    def test_pinned_fires_once_with_auto_worker(self):
        injector, fired = _drive(FaultPlan.at(5))
        # worker defaults to superstep % num_workers at fire time
        assert fired == [(5, 1, "barrier")]
        assert injector.exhausted

    def test_phase_must_match(self):
        injector = FaultPlan.at(2, worker=1, phase="begin").injector()
        injector.poll(2, "barrier", 4)  # wrong phase: no fire
        assert not injector.exhausted
        with pytest.raises(WorkerFailure) as exc:
            injector.poll(2, "begin", 4)
        assert exc.value.worker == 1
        assert injector.exhausted

    def test_hazard_is_deterministic_and_capped(self):
        plan = FaultPlan.hazard_rate(0.1, seed=9, max_failures=3)
        _, first = _drive(plan)
        injector, second = _drive(plan)
        assert first == second
        assert len(first) == 3
        assert injector.exhausted
        # A different seed kills at different supersteps.
        _, other = _drive(FaultPlan.hazard_rate(0.1, seed=10, max_failures=3))
        assert other != first

    def test_fired_log(self):
        injector, _ = _drive(FaultPlan.at(3, worker=2))
        assert [(f.superstep, f.worker) for f in injector.fired] == [(3, 2)]


# ---------------------------------------------------------------------------
# Checkpoint policies
# ---------------------------------------------------------------------------
def _record(ops=50):
    rec = SuperstepRecord(index=0, kind="vertex_map", worker_ops=[ops, ops])
    rec.sync_messages = 4
    rec.sync_values = 8
    return rec


class TestCheckpointPolicies:
    def test_base_policy_never_checkpoints(self):
        policy = CheckpointPolicy()
        assert not any(policy.should_checkpoint(None, _record()) for _ in range(10))

    def test_periodic_pattern(self):
        policy = PeriodicCheckpointPolicy(every=3)
        pattern = [policy.should_checkpoint(None, _record()) for _ in range(7)]
        assert pattern == [False, False, True, False, False, True, False]

    def test_periodic_reset(self):
        policy = PeriodicCheckpointPolicy(every=2)
        policy.should_checkpoint(None, _record())
        policy.reset()
        assert not policy.should_checkpoint(None, _record())
        assert policy.should_checkpoint(None, _record())

    def test_periodic_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            PeriodicCheckpointPolicy(every=0)

    def test_adaptive_alpha_extremes(self):
        eng = FlashEngine(random_graph(20, 40, seed=1), num_workers=2)
        eng.add_property("x", 0)
        eager = AdaptiveCheckpointPolicy(alpha=1e-12)
        assert eager.should_checkpoint(eng.flashware, _record())
        reluctant = AdaptiveCheckpointPolicy(alpha=1e12)
        assert not any(
            reluctant.should_checkpoint(eng.flashware, _record()) for _ in range(20)
        )

    def test_adaptive_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            AdaptiveCheckpointPolicy(alpha=0)

    def test_make_policy(self):
        assert isinstance(make_policy(None), PeriodicCheckpointPolicy)
        assert make_policy(None).every == 4
        assert make_policy("periodic", 7).every == 7
        assert isinstance(make_policy("adaptive"), AdaptiveCheckpointPolicy)
        assert type(make_policy("none")) is CheckpointPolicy
        with pytest.raises(ValueError):
            make_policy("bogus")


# ---------------------------------------------------------------------------
# Checkpoint stores
# ---------------------------------------------------------------------------
def _snapshot_engine(backend="interp"):
    """An engine with an array-typed and an object-valued property."""
    from repro.core.config import use_config

    with use_config(backend=backend):
        eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2)]), num_workers=2)
    eng.add_property("x", 0)
    eng.add_property("bag", factory=set)
    eng.vertex_map(
        eng.V, ctrue,
        lambda v: (setattr(v, "x", v.id * 3), setattr(v, "bag", {v.id}))[-1] or v,
    )
    return eng


class TestMemoryCheckpointStore:
    def test_round_trip(self):
        eng = _snapshot_engine()
        snapshot = eng.flashware.checkpoint()
        store = MemoryCheckpointStore()
        volume = store.save(3, snapshot)
        assert volume == snapshot_volume(snapshot) > 0
        loaded = store.load(3)
        assert list(loaded["columns"]["x"]) == [0, 3, 6]
        assert list(loaded["columns"]["bag"]) == [{0}, {1}, {2}]
        assert loaded["properties"] == ["x", "bag"]
        # Factories ride alongside the serialized blob.
        assert loaded["factories"]["bag"]() == set()

    def test_blob_is_independent_of_live_state(self):
        eng = _snapshot_engine()
        store = MemoryCheckpointStore()
        store.save(1, eng.flashware.checkpoint())
        eng.flashware.state.column("bag")[0].add(777)
        assert store.load(1)["columns"]["bag"][0] == {0}

    def test_corruption_detected_and_skipped(self):
        eng = _snapshot_engine()
        store = MemoryCheckpointStore()
        store.save(2, eng.flashware.checkpoint())
        eng.vertex_map(eng.V, ctrue, lambda v: setattr(v, "x", 9) or v)
        store.save(4, eng.flashware.checkpoint())
        store.corrupt(4)
        with pytest.raises(CorruptCheckpointError):
            store.load(4)
        seq, snapshot = store.latest_valid()
        assert seq == 2
        assert list(snapshot["columns"]["x"]) == [0, 3, 6]
        # The corrupt snapshot was dropped from the store.
        assert store.seqs() == [2]

    def test_has_and_discard(self):
        store = MemoryCheckpointStore()
        store.save(1, _snapshot_engine().flashware.checkpoint())
        assert store.has(1) and not store.has(2)
        store.discard(1)
        assert store.seqs() == []
        assert store.latest_valid() is None


class TestDiskCheckpointStore:
    def test_round_trip_npz_and_pickle(self, tmp_path):
        eng = _snapshot_engine(backend="vectorized")
        assert eng.flashware.state.array("x") is not None  # real npz path
        snapshot = eng.flashware.checkpoint()
        store = DiskCheckpointStore(tmp_path)
        store.save(3, snapshot)
        for suffix in (".npz", ".pkl", ".json"):
            assert (tmp_path / f"ckpt_3{suffix}").exists()
        loaded = store.load(3)
        assert isinstance(loaded["columns"]["x"], np.ndarray)
        assert list(loaded["columns"]["x"]) == [0, 3, 6]
        assert list(loaded["columns"]["bag"]) == [{0}, {1}, {2}]
        assert store.seqs() == [3]

    def test_corruption_falls_back_to_previous(self, tmp_path):
        eng = _snapshot_engine(backend="vectorized")
        store = DiskCheckpointStore(tmp_path)
        store.save(1, eng.flashware.checkpoint())
        store.save(3, eng.flashware.checkpoint())
        pkl = tmp_path / "ckpt_3.pkl"
        data = pkl.read_bytes()
        pkl.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])
        seq, _ = store.latest_valid()
        assert seq == 1
        assert store.seqs() == [1]
        assert not (tmp_path / "ckpt_3.json").exists()

    def test_missing_checkpoint_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            DiskCheckpointStore(tmp_path).load(9)


# ---------------------------------------------------------------------------
# Recovery orchestration
# ---------------------------------------------------------------------------
def _path_graph(n=12):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


class TestRecoveryManager:
    def test_rollback_replay_accounting(self):
        """A mid-run kill with periodic checkpoints: the recovered run is
        value-identical, and the metrics carve the redone work out of the
        first-attempt totals exactly."""
        graph = _path_graph()
        clean_engine = FlashEngine(graph, num_workers=3)
        clean = bfs(clean_engine, root=0)
        clean_ops = clean_engine.metrics.total_ops
        assert clean_engine.metrics.num_supersteps > 8

        engine = FlashEngine(graph, num_workers=3)
        report = run_with_recovery(
            engine,
            lambda eng: bfs(eng, root=0),
            plan=FaultPlan.at(7, worker=1),
            policy=PeriodicCheckpointPolicy(2),
        )
        assert report.result.values == clean.values
        stats = report.stats
        assert stats.failures == 1
        assert stats.rollbacks == 1
        assert stats.restarts == 0
        assert stats.aborted_supersteps == 1
        # Checkpoints at supersteps 2/4/6; the kill at 7 replays only 6.
        assert stats.replayed_supersteps == 1
        assert stats.restore_values > 0
        assert stats.checkpoint_values > 0

        m = engine.metrics
        # Replay is charged *in addition to* the fault-free work, never
        # mixed into it.
        assert m.first_attempt_ops == clean_ops
        assert m.replayed_ops > 0
        assert m.summary()["checkpoints"] == stats.checkpoints_written
        cost = engine.cost()
        assert cost.checkpoint > 0
        assert cost.recovery > 0
        assert cost.fractions()["recovery"] > 0

    def test_no_checkpoints_means_full_restart(self):
        graph = _path_graph()
        clean = bfs(graph, root=0)
        engine = FlashEngine(graph, num_workers=3)
        report = run_with_recovery(
            engine,
            lambda eng: bfs(eng, root=0),
            plan=FaultPlan.at(5),
            policy=CheckpointPolicy(),  # never checkpoints
        )
        assert report.result.values == clean.values
        stats = report.stats
        assert stats.restarts == 1
        assert stats.rollbacks == 0
        assert stats.checkpoints_written == 0
        assert stats.restore_values == 0
        # Nothing to roll forward from: the whole prefix is replayed.
        assert stats.replayed_supersteps == 5

    def test_recovery_exhausted(self):
        engine = FlashEngine(_path_graph(), num_workers=2)
        with pytest.raises(RecoveryExhausted):
            run_with_recovery(
                engine,
                lambda eng: bfs(eng, root=0),
                plan=FaultPlan.hazard_rate(1.0, seed=1, max_failures=100),
                max_retries=2,
            )

    def test_corrupt_checkpoint_falls_back_during_recovery(self):
        """A corrupt newest checkpoint is skipped at rollback: recovery
        lands on the previous snapshot and still converges."""
        graph = _path_graph(10)
        store = MemoryCheckpointStore()
        corrupted = []

        def program(eng):
            # Properties are declared inside the program, like real
            # algorithms do — a full replay starts from a blank state.
            eng.add_property("x", 0)
            fw = eng.flashware
            for _ in range(8):
                eng.vertex_map(eng.V, ctrue, lambda v: setattr(v, "x", v.x + 1) or v)
                if fw.superstep_seq == 6 and not corrupted and store.has(6):
                    store.corrupt(6)
                    corrupted.append(True)
            return eng.values("x")

        engine = FlashEngine(graph, num_workers=2)
        report = run_with_recovery(
            engine,
            program,
            plan=FaultPlan.at(6, phase="begin"),
            policy=PeriodicCheckpointPolicy(2),
            store=store,
        )
        assert report.result == [8] * graph.num_vertices
        stats = report.stats
        assert stats.failures == 1
        assert stats.rollbacks == 1
        assert stats.corrupt_checkpoints == 1
        # Fell back from checkpoint 6 to 4: supersteps 4 and 5 redone.
        assert stats.replayed_supersteps == 2

    def test_disk_store_recovery(self, tmp_path):
        graph = _path_graph()
        clean = bfs(graph, root=0)
        engine = FlashEngine(graph, num_workers=3)
        report = run_with_recovery(
            engine,
            lambda eng: bfs(eng, root=0),
            plan=FaultPlan.at(7),
            policy=PeriodicCheckpointPolicy(3),
            store=DiskCheckpointStore(tmp_path),
        )
        assert report.result.values == clean.values
        assert report.stats.rollbacks == 1
        assert list(tmp_path.glob("ckpt_*.json"))


# ---------------------------------------------------------------------------
# The headline invariant: whole-suite fault/recovery parity
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 120, seed=11)


class TestSuiteRecoveryParity:
    @pytest.mark.parametrize("backend", ["interp", "vectorized"])
    @pytest.mark.parametrize("app", APPS)
    def test_fault_parity(self, app, backend, graph):
        g = graph
        if app in DIRECTED_APPS:
            g = load_dataset("OR", scale=0.05, directed=True)
        g = prepare_graph(app, g)
        clean = run_app("flash", app, g, num_workers=3, backend=backend)
        supersteps = clean.metrics.num_supersteps
        fail_at = max(1, supersteps // 2)
        faulty = run_app(
            "flash", app, g, num_workers=3, backend=backend,
            faults=FaultPlan.at(fail_at),
            checkpoint_policy=lambda: PeriodicCheckpointPolicy(3),
        )
        assert faulty.values == clean.values, app
        stats = faulty.extra["recovery"]
        if len(_FLASH_VARIANTS[app]) == 1 and fail_at < supersteps:
            # Single-variant apps: the reported run is the one the fault
            # actually struck — check the recovery really happened and
            # that replayed work stayed out of the first-attempt totals.
            assert stats["failures"] == 1, app
            assert stats["aborted_supersteps"] == 1, app
            assert faulty.metrics.first_attempt_ops == clean.metrics.total_ops, app
            assert faulty.metrics.num_supersteps >= clean.metrics.num_supersteps, app


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    def test_run_faults_flag(self, capsys):
        assert main(["run", "bfs", "OR", "--scale", "0.05", "--workers", "2",
                     "--faults", "3", "--checkpoint-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovery: 1 failure(s)" in out
        assert "recovery share of simulated cost" in out
        assert "rolled back to checkpoint" in out

    def test_run_adaptive_checkpoint_flag(self, capsys):
        assert main(["run", "bfs", "OR", "--scale", "0.05", "--workers", "2",
                     "--faults", "3", "--checkpoint", "adaptive"]) == 0
        assert "recovery:" in capsys.readouterr().out

    def test_compare_faults_flag(self, capsys):
        assert main(["compare", "bfs", "OR", "--scale", "0.05", "--workers", "2",
                     "--faults", "3"]) == 0
        out = capsys.readouterr().out
        assert "flash fault tolerance:" in out
        assert "failure(s)" in out
