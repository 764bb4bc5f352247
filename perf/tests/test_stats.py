import statistics

import pytest

from perf import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, 50.0),    # nothing above the median has ten samples beyond it
        (39, 50.0),    # p75 would have 9.75 beyond
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),   # p95 would have 9.95 beyond
        (200, 95.0),
        (400, 95.0),   # twenty beyond p95, four beyond p99
        (1000, 99.0),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_supported_percentile(n) == expected
    assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND or expected == 50.0


def test_percentile_supported_matches_rule():
    assert stats.percentile_supported(12, 50.0)
    assert not stats.percentile_supported(12, 95.0)
    assert stats.percentile_supported(262, 95.0)
    assert not stats.percentile_supported(262, 99.0)


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 87.5) == pytest.approx(4.5)


def test_iqr_is_the_drivers_spread():
    values = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 10.6, 9.7]
    q = statistics.quantiles(values, n=4)
    assert stats.iqr(values) == pytest.approx(q[2] - q[0])
