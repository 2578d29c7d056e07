"""Order statistics shared by the benchmark runner and its tests (stdlib only)."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile p among n values (1-based)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n_ops: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND ops above its value.

    Returns None when even the median leaves fewer than MIN_BEYOND ops
    beyond it.
    """
    best = None
    for p in TAIL_LADDER:
        if n_ops - _rank(p, n_ops) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
