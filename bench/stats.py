"""Percentiles, quartiles and the parent-versus-change verdict rule."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = 10) -> int:
    """The highest whole percentile (50..99) with at least `beyond` of n samples above its rank.

    With fewer than 2 * `beyond` samples no percentile qualifies, and the
    median is used.
    """
    for q in range(99, 50, -1):
        if n - math.ceil(q / 100 * n) >= beyond:
            return q
    return 50


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


IMPROVED = "improved"
NO_WORSE = "no worse within bound"
UNRESOLVED = "unresolved"
WORSE = "worse"


def win_rate(pairs: list[tuple[float, float]], better: str) -> float:
    """Share of (parent, change) pairs the change wins; ties count for neither side."""
    if not pairs:
        return 0.0
    if better == "lower":
        wins = sum(change < parent for parent, change in pairs)
    else:
        wins = sum(change > parent for parent, change in pairs)
    return wins / len(pairs)


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    """Classify a change against its parent for one metric on one workload.

    Improved: the change wins at least nine tenths of the pairs and the
    medians differ, in its favour, by more than the parent's quartile
    distance.  Otherwise, when the parent's own spread is wider than the
    bound, the result is unresolved unless every change run beats every
    parent run.  Otherwise the change is worse when its median is worse than
    the parent's by more than `bound` times the parent's median.
    """
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (pm - cm)
    if win_rate(pairs, better) >= 0.9 and gain > p3 - p1:
        return IMPROVED
    if relative_spread(parent) > bound:
        if better == "lower":
            every_run_better = max(change) < min(parent)
        else:
            every_run_better = min(change) > max(parent)
        return NO_WORSE if every_run_better else UNRESOLVED
    loss = -gain / abs(pm) if pm else (math.inf if gain < 0 else 0.0)
    return WORSE if loss > bound else NO_WORSE
