"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

# candidate tail levels in tenths of a percent: p50, p75, p90, p95, p99, p99.9
TAIL_LEVELS = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10


def samples_beyond(n: int, level: int) -> int:
    """Samples strictly above the given level (tenths of a percent) out of n."""
    return n * (1000 - level) // 1000


def tail_level(n: int) -> float | None:
    """Highest percentile in TAIL_LEVELS with at least ten samples beyond it.

    None when even the median has fewer than ten samples above it.
    """
    best = None
    for level in TAIL_LEVELS:
        if samples_beyond(n, level) >= MIN_BEYOND:
            best = level
    return None if best is None else best / 10


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)
