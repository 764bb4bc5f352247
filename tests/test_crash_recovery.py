"""Real worker death and recovery: process-level chaos injection.

The tentpole invariant of the crash-recovery layer: an ``executor="mp"``
run whose worker process is genuinely SIGKILL'd (or hangs, or slows)
mid-computation must finish with vertex values bit-identical to the
uninterrupted run — the supervisor detects the loss, respawns the rank,
re-ships graph + session state, and the recovery layer rolls back to the
last checkpoint and replays.  Detection latency, respawn wall time and
re-shipped volume are all first-class accounting, asserted here.

Process-pool hygiene: the ``WorkerPool`` unit tests below build private
pools (never the shared ``get_pool`` ones) so deliberately killed
workers cannot leak into the parity suite's pools.
"""

from __future__ import annotations

import errno
import functools
import os
import pickle
import signal

import pytest

from repro import load_dataset
from repro.errors import DistributedError, FlashUsageError, WorkerCrashError
from repro.runtime.distributed.executor import WorkerPool
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.suite import prepare_graph, run_app

SCALE = 0.05  # |V|=75 on the OR dataset — matches the parity suite.


@functools.lru_cache(maxsize=None)
def _graph(app: str):
    graph = load_dataset("OR", scale=SCALE, directed=(app == "scc"))
    return prepare_graph(app, graph)


@functools.lru_cache(maxsize=None)
def _clean_values_blob(app: str, workers: int) -> bytes:
    return pickle.dumps(run_app("flash", app, _graph(app), num_workers=workers).values)


# ---------------------------------------------------------------------------
# The tentpole: SIGKILL a real worker mid-run, finish bit-identical.
# ---------------------------------------------------------------------------
def test_sigkill_mid_run_recovers_bit_identical():
    recovered = run_app("flash", "cc", _graph("cc"), num_workers=4,
                        executor="mp", faults="kill@3:w1")
    assert pickle.dumps(recovered.values) == _clean_values_blob("cc", 4)

    rec = recovered.extra["recovery"]
    assert rec["failures"] >= 1
    assert rec["process_crashes"] >= 1
    assert rec["respawns"] >= 1
    assert rec["respawn_wall_s"] > 0.0
    assert rec["reshipped_values"] > 0
    assert rec["reshipped_bytes"] > 0
    assert rec["restarts"] + rec["rollbacks"] >= 1

    dist = recovered.extra["distributed"]
    # Pool counters are cumulative across sessions sharing the pool, so
    # >= — but a respawn definitely happened and was charged in bytes.
    assert dist["respawns"] >= 1
    assert dist["bytes_reshipped"] > 0
    # Post-recovery mirror traffic still reconciles with the charge.
    for record in dist["per_superstep"]:
        assert record["sync_entries"] == record["charged_sync_messages"], record


def test_sigkill_recovery_cost_is_charged():
    recovered = run_app("flash", "cc", _graph("cc"), num_workers=2,
                        executor="mp", faults="kill@2:w0")
    assert pickle.dumps(recovered.values) == _clean_values_blob("cc", 2)
    cost = recovered.cost()
    # The recovery component must include the respawn + re-ship charge.
    assert cost.recovery > 0.0
    assert recovered.metrics.summary()["respawns"] >= 1
    assert recovered.metrics.summary()["reshipped_values"] > 0


def test_hung_worker_detected_by_reply_timeout(monkeypatch):
    monkeypatch.setenv("REPRO_MP_TIMEOUT", "3")
    recovered = run_app("flash", "bfs", _graph("bfs"), num_workers=2,
                        executor="mp", faults="hang@1:w0")
    assert pickle.dumps(recovered.values) == _clean_values_blob("bfs", 2)
    rec = recovered.extra["recovery"]
    assert rec["process_crashes"] >= 1
    assert rec["respawns"] >= 1


def test_slow_pipe_is_survived_without_declaring_death(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_SLOW_S", "0.05")
    slowed = run_app("flash", "bfs", _graph("bfs"), num_workers=2,
                     executor="mp", faults="slow@1:w0")
    assert pickle.dumps(slowed.values) == _clean_values_blob("bfs", 2)
    rec = slowed.extra["recovery"]
    # Slowness is not death: no crash, no respawn, no rollback.
    assert rec["failures"] == 0
    assert rec["process_crashes"] == 0
    assert rec["respawns"] == 0


# ---------------------------------------------------------------------------
# WorkerPool-level crash detection and lazy respawn (private pools).
# ---------------------------------------------------------------------------
@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.shutdown()


def test_broken_pipe_marks_rank_dead_with_exit_code(pool):
    victim = pool._procs[1]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)

    with pytest.raises(WorkerCrashError) as exc:
        pool.request_one(1, "ping", -1, None)
    assert exc.value.worker == 1
    assert exc.value.exitcode == -signal.SIGKILL
    assert "SIGKILL" in str(exc.value)
    assert 1 in pool._dead_ranks

    # heal=False refuses the dead rank outright (supervised paths use it
    # so shutdown/close never resurrect a worker just to say goodbye).
    with pytest.raises(WorkerCrashError, match="dead"):
        pool.request_one(1, "ping", -1, None, heal=False)

    # The surviving rank is untouched...
    assert pool.request_one(0, "ping", -1, None) == 0
    # ...and the next healing send lazily respawns the dead one.
    assert pool.request_one(1, "ping", -1, None) == 1
    assert not pool._dead_ranks
    assert pool.respawns == 1
    assert pool.respawn_wall_s > 0.0


def test_request_many_drains_survivors_after_crash(pool):
    victim = pool._procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)

    with pytest.raises(WorkerCrashError) as exc:
        pool.broadcast("ping", -1, None)
    assert exc.value.worker == 0
    # The survivor's pipe was drained, not abandoned: the very next
    # request/reply round-trip on rank 1 is clean.
    assert pool.request_one(1, "ping", -1, None) == 1


def test_malformed_timeout_is_a_usage_error_and_costs_no_bytes(pool, monkeypatch):
    """A bad ``REPRO_MP_TIMEOUT`` must be refused before anything is
    sent: parsed after the send it left the reply in the pipe, and every
    later request on that rank read its predecessor's answer."""
    sent = (pool.bytes_sent, pool.messages_sent)
    monkeypatch.setenv("REPRO_MP_TIMEOUT", "abc")
    for request in (
        lambda: pool.request_one(0, "ping", -1, None),
        lambda: pool.broadcast("ping", -1, None),
        lambda: pool.supervisor.heal(),
    ):
        with pytest.raises(FlashUsageError, match=r"REPRO_MP_TIMEOUT.*'abc'"):
            request()
    assert (pool.bytes_sent, pool.messages_sent) == sent
    # Fix the variable: the same pool answers in step, rank by rank.
    monkeypatch.setenv("REPRO_MP_TIMEOUT", "30")
    assert pool.broadcast("ping", -1, None) == [0, 1]
    assert pool.request_one(1, "ping", -1, None) == 1


def test_supervisor_heartbeat_and_heal(pool):
    sup = pool.supervisor
    assert [h["status"] for h in sup.health()] == ["running", "running"]
    assert sup.heartbeat() == {0: "ok", 1: "ok"}

    victim = pool._procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert sup.heartbeat() == {0: "dead", 1: "ok"}
    assert sup.diagnose(0)["status"] == "dead"

    report = sup.heal()
    assert report["respawned"] == [0]
    assert report["wall_s"] > 0.0
    assert sup.heartbeat() == {0: "ok", 1: "ok"}


def test_supervisor_transient_classification(pool):
    sup = pool.supervisor
    assert sup.is_transient(InterruptedError())
    assert sup.is_transient(BlockingIOError())
    assert sup.is_transient(OSError(errno.EAGAIN, "try again"))
    assert not sup.is_transient(BrokenPipeError())
    assert not sup.is_transient(OSError(errno.EPIPE, "broken pipe"))
    assert not sup.is_transient(ValueError("not a pipe error at all"))
    delays = sup.backoff_delays()
    assert len(delays) == sup.max_transient_retries
    assert delays == sorted(delays)  # exponential: strictly non-decreasing
    assert all(b == pytest.approx(a * 2) for a, b in zip(delays, delays[1:]))


# ---------------------------------------------------------------------------
# Exception round-trip: worker errors keep their identity (or degrade
# loudly with the original traceback).
# ---------------------------------------------------------------------------
def test_worker_exception_round_trips_with_traceback(pool):
    # An op against an unknown session raises KeyError *in the worker*;
    # it must come back as a KeyError carrying the worker's traceback.
    with pytest.raises(KeyError) as exc:
        pool.request_one(0, "snapshot", 999, "tag")
    assert "KeyError" in exc.value.worker_traceback
    # The failed request did not poison the pipe.
    assert pool.request_one(0, "ping", -1, None) == 0


class _Unpicklable(Exception):
    def __reduce__(self):  # pragma: no cover - never called successfully
        raise TypeError("deliberately unpicklable")


def test_rebuild_exception_happy_path():
    original = ValueError("boom")
    rebuilt = WorkerPool._rebuild_exception(
        0, "exec", "ValueError", pickle.dumps(original), "Traceback ... boom")
    assert isinstance(rebuilt, ValueError)
    assert rebuilt.args == ("boom",)
    assert rebuilt.worker_traceback == "Traceback ... boom"


def test_rebuild_exception_fallback_without_blob():
    rebuilt = WorkerPool._rebuild_exception(
        2, "exec", "_Unpicklable", None, "Traceback ...\n_Unpicklable: no")
    assert isinstance(rebuilt, DistributedError)
    assert "_Unpicklable" in str(rebuilt)
    assert "worker 2" in str(rebuilt)
    assert rebuilt.worker_traceback.endswith("_Unpicklable: no")


def test_rebuild_exception_fallback_on_forged_blob():
    # The blob deserializes but to a non-exception: still the fallback.
    rebuilt = WorkerPool._rebuild_exception(
        1, "commit", "RuntimeError", pickle.dumps({"not": "an exception"}),
        "tb text")
    assert isinstance(rebuilt, DistributedError)
    assert rebuilt.worker_traceback == "tb text"


def test_rebuild_exception_name_mismatch_chains_original():
    # Blob round-trips to a *different* type than reported: fall back to
    # DistributedError but chain the deserialized object as the cause.
    rebuilt = WorkerPool._rebuild_exception(
        3, "exec", "WeirdError", pickle.dumps(KeyError("k")), "tb")
    assert isinstance(rebuilt, DistributedError)
    assert isinstance(rebuilt.__cause__, KeyError)


# ---------------------------------------------------------------------------
# The --faults grammar: process modes parse, coerce, and describe.
# ---------------------------------------------------------------------------
class TestProcessFaultGrammar:
    def test_parse_kill_with_worker(self):
        plan = FaultPlan.parse("kill@3:w1")
        assert plan.faults == (FaultSpec(3, 1, phase="begin", mode="kill"),)
        assert plan.has_process_faults

    def test_parse_worker_prefix_optional(self):
        assert FaultPlan.parse("hang@2:0") == FaultPlan.parse("hang@2:w0")

    def test_parse_auto_worker_and_mixed_modes(self):
        plan = FaultPlan.parse("slow@4,kill@6:w2,3:1")
        assert plan.faults == (
            FaultSpec(4, None, phase="begin", mode="slow"),
            FaultSpec(6, 2, phase="begin", mode="kill"),
            FaultSpec(3, 1),  # plain entries stay simulated
        )
        assert plan.process_faults == plan.faults[:2]

    def test_process_specs_coerced_to_begin_phase(self):
        spec = FaultSpec(2, 0, phase="barrier", mode="kill")
        assert spec.phase == "begin"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="fault mode"):
            FaultPlan.parse("pause@2:w0")
        with pytest.raises(ValueError, match="worker"):
            FaultPlan.parse("kill@2:wx")

    def test_describe_prefixes_mode(self):
        assert FaultPlan.parse("kill@3:w1").describe() == "kill@s3:w1"
        assert FaultPlan.parse("hang@2").describe() == "hang@s2:wauto"
        assert FaultPlan.parse("4:1").describe() == "s4:w1"

    def test_poll_process_fires_once_without_raising(self):
        injector = FaultPlan.parse("kill@3:w1,hang@3").injector()
        assert injector.poll_process(2, "begin", 4) == []
        due = injector.poll_process(3, "begin", 4)
        assert sorted(due) == [(1, "kill"), (3, "hang")]  # auto = 3 % 4
        assert injector.poll_process(3, "begin", 4) == []  # fired once
        assert injector.fired_process == [(1, 3, "kill"), (3, 3, "hang")]
        assert injector.exhausted

    def test_sim_poll_skips_process_specs(self):
        injector = FaultPlan.parse("kill@3:w1").injector()
        # A simulated poll at the same (superstep, phase) must not raise.
        injector.poll(3, "begin", 4)
        assert not injector.fired


def test_process_faults_rejected_on_inline_executor():
    with pytest.raises(FlashUsageError, match="executor='mp'"):
        run_app("flash", "cc", _graph("cc"), num_workers=2,
                faults="kill@3:w1")


def test_cli_help_documents_chaos_grammar(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    helptext = capsys.readouterr().out
    assert "kill@3:w1" in helptext
    assert "hang@2:w0" in helptext
    assert "slow@1:w2" in helptext
