"""Order statistics used by every metric the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[int, float]:
    """``(percentile, value)`` for the tail of a latency sample.

    The percentile is the highest whole one that leaves at least ten
    samples beyond its nearest-rank value, and never below the median:
    with fewer than twenty samples the tail is reported as the p50.
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = max(50, (100 * (n - 10)) // n) if n > 10 else 50
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]
