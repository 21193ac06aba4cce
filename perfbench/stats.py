"""Summary statistics for per-operation latency samples."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first, so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def nearest_rank(sorted_values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule: an actual sample."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples rank strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int, cap: float = TAIL_LADDER[-1]) -> float | None:
    """Highest ladder percentile, at most ``cap``, with MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples above it.
    The cap keeps a workload on one percentile when a faster program
    completes more operations in the same run length.
    """
    best = None
    for p in TAIL_LADDER:
        if p <= cap and samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def latency_summary(latencies_s, cap: float) -> dict:
    """Median and tail latency in milliseconds, with the sample count."""
    values = sorted(latencies_s)
    p = tail_percentile(len(values), cap)
    tail_p = 50.0 if p is None else p
    return {
        "samples": len(values),
        "p50_ms": statistics.median(values) * 1e3,
        "tail_percentile": tail_p,
        "tail_beyond": samples_beyond(len(values), tail_p),
        "tail_ms": nearest_rank(values, tail_p) * 1e3,
    }


def relative_iqr(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
