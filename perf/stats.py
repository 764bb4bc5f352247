"""Summary statistics the ledger reports: median, IQR, and the
percentile rule (a tail percentile is only quoted when enough samples
lie beyond it to make it repeatable)."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile before it is reported
#: (choosing-metrics guide, section 1).
MIN_BEYOND = 10

#: Tail percentiles the ledger may quote, highest first.
PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def samples_beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie beyond percentile ``pct``."""
    return n * (100.0 - pct) / 100.0


def highest_supported_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it; 50 (the median) when none qualifies."""
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def percentile_supported(n: int, pct: float) -> bool:
    """Whether ``n`` samples support quoting percentile ``pct``."""
    return pct <= 50.0 or samples_beyond(n, pct) >= MIN_BEYOND


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (the driver's
    spread)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return float(q[2] - q[0])
