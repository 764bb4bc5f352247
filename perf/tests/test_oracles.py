import numpy as np

from perf import oracles
from perf.workloads import WORKLOADS, OpLog


def test_self_test_passes():
    oracles.self_test()


def test_fail_share_counts_errors_and_wrong_answers():
    assert oracles.fail_share(0, 0, 10) == 0.0
    assert oracles.fail_share(1, 2, 10) == 0.3
    assert oracles.fail_share(0, 0, 0) == 1.0  # nothing attempted is not a pass


def test_one_corrupted_result_gives_positive_fail_share(tmp_path):
    wl = WORKLOADS["vec-sparse"](3, "smoke", tmp_path)
    wl.build()
    try:
        wl.prepare_oracle()
        _latency, outputs, _counts = wl.op()
        corrupted = [np.array(o, copy=True) for o in outputs]
        reachable = np.flatnonzero(np.isfinite(corrupted[0]))
        corrupted[0][reachable[-1]] += 1.0
        log = OpLog(latencies=[0.1, 0.1], outputs=[outputs, corrupted])
        wrong = wl.verify(log)
    finally:
        wl.teardown()
    assert wrong == 1
    assert oracles.fail_share(log.errors, wrong, log.attempted) > 0


def test_unreachable_vertices_must_stay_unreachable():
    want = np.array([0.0, 1.0, np.inf])
    assert oracles.matches([0.0, 1.0, np.inf], want)
    assert not oracles.matches([0.0, 1.0, 7.0], want)
    assert not oracles.matches([0.0, 1.0], want)


def test_pagerank_oracle_handles_dangling_and_multiplicity():
    # vertex 3 is isolated (dangling); the edge 0-1 appears twice.
    src = np.array([0, 0, 1])
    dst = np.array([1, 1, 2])
    rank = oracles.pagerank(4, src, dst, max_iters=50)
    assert rank.sum() == 1.0 or abs(rank.sum() - 1.0) < 1e-12
    assert rank[1] > rank[0] > rank[3]
