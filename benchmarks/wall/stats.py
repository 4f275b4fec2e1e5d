"""Order statistics the benchmark reports, and the rule for trusting them."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported as supported only with this many samples
#: beyond it (choosing-metrics guide, section 1).
MIN_TAIL_SAMPLES = 10

median = statistics.median


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def tail_supported(count: int, q: float) -> bool:
    """Are there at least :data:`MIN_TAIL_SAMPLES` samples beyond ``q``?"""
    return count * (100 - q) / 100 >= MIN_TAIL_SAMPLES


def highest_supported(count: int, ranks=(99.9, 99, 95, 90, 75)) -> float | None:
    """The highest of ``ranks`` a sample of ``count`` values supports."""
    for q in ranks:
        if tail_supported(count, q):
            return q
    return None
