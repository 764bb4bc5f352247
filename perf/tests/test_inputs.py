"""Inputs come from the seed alone: same seed, same inputs and same
per-op counts; another seed, other inputs."""

import pytest

from perf.layers import stable_counts
from perf.workloads import WORKLOADS


def _built(name, seed, tmp_path):
    wl = WORKLOADS[name](seed, "smoke", tmp_path)
    wl.build()
    return wl


@pytest.mark.parametrize("name", ["vec-dense", "vec-sparse", "oocore-dense", "oocore-sparse"])
def test_same_seed_same_inputs_and_counts(name, tmp_path):
    digests, counts = [], []
    for run in range(2):
        wl = _built(name, 5, tmp_path / str(run))
        try:
            digests.append(wl.input_digest())
            _latency, _outputs, op_counts = wl.op()
            counts.append(stable_counts(op_counts))
        finally:
            wl.teardown()
    assert digests[0] == digests[1]
    assert counts[0] == counts[1]
    assert counts[0]["supersteps"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name, tmp_path):
    digests = []
    for seed in (5, 6):
        wl = _built(name, seed, tmp_path / str(seed))
        try:
            digests.append(wl.input_digest())
        finally:
            wl.teardown()
    assert digests[0] != digests[1]


def test_serving_plan_is_seeded(tmp_path):
    a = _built("serve-burst", 9, tmp_path / "a")
    b = _built("serve-burst", 9, tmp_path / "b")
    try:
        assert a.plans == b.plans
        assert a.input_digest() == b.input_digest()
        assert len(a.plans) == a.knobs["clients"]
    finally:
        a.teardown()
        b.teardown()
