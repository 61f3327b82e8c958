"""Order statistics the benchmark reports: percentiles, medians, spreads."""

from __future__ import annotations

import math
import statistics
import typing


def percentile(values: "typing.Sequence[float]", q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it.

    With ``n`` samples, ``percentile(values, 99)`` leaves
    ``n - ceil(0.99 n)`` samples strictly above its rank, which is how
    the benchmark decides whether a p99 has ten samples beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q`` percentile."""
    return count - max(math.ceil(q * count / 100.0), 1)


def summarize(values: "typing.Sequence[float]") -> "dict[str, float]":
    """Median, quartiles and sample count of one metric's samples.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (the
    exclusive method); with one sample both quartiles equal it.
    """
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = float(values[0])
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": float(statistics.median(values)),
        "q1": float(q1),
        "q3": float(q3),
        "n": len(values),
    }


def relative_spread(values: "typing.Sequence[float]") -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    summary = summarize(values)
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
