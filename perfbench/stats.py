"""Summary statistics the benchmark reports: medians, tails and overhead ratios."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10

PROFILED = "profiled"
UNPROFILED = "unprofiled"


@dataclass(frozen=True)
class Tail:
    """A tail percentile together with the evidence behind it."""

    percentile: float
    value: float
    #: Samples strictly beyond the percentile's rank.
    beyond: int
    samples: int


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank percentile of sorted samples and how many samples lie beyond it."""
    count = len(sorted_values)
    rank = min(count, max(1, math.ceil(percentile / 100.0 * count)))
    return sorted_values[rank - 1], count - rank


def tail(values: Iterable[float]) -> Tail:
    """The highest percentile of ``TAIL_PERCENTILES`` with ``MIN_BEYOND`` samples beyond it.

    With too few samples for even the median to qualify, the median is
    returned and ``beyond`` shows how thin the evidence is.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    for percentile in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, percentile)
        if beyond >= MIN_BEYOND:
            return Tail(percentile, value, beyond, len(ordered))
    percentile = TAIL_PERCENTILES[-1]
    value, beyond = nearest_rank(ordered, percentile)
    return Tail(percentile, value, beyond, len(ordered))


def step_ratios(steps: Sequence[Tuple[str, float]]) -> List[float]:
    """Each profiled step of one cycle over the median unprofiled step of that cycle.

    ``steps`` are ``(PROFILED | UNPROFILED, seconds)`` in the order they ran.
    Interleaving the two kinds in one process exposes both to the same drift
    of the machine, which a profiled run followed by an unprofiled one would
    not.  ``overhead_x`` is the :func:`stratified_median` of these ratios.
    """
    times: dict = {PROFILED: [], UNPROFILED: []}
    for kind, seconds in steps:
        if kind not in times:
            raise ValueError(f"unknown step kind {kind!r}")
        times[kind].append(seconds)
    if not times[PROFILED] or not times[UNPROFILED]:
        raise ValueError("overhead needs profiled and unprofiled steps")
    unit = median(times[UNPROFILED])
    return [seconds / unit for seconds in times[PROFILED]]


def stratified_median(values: Sequence[float], strata: Sequence[str]) -> float:
    """The mean over strata of each stratum's median.

    A run that rotates over models of different sizes samples a mixture;
    its plain median lands wherever the clusters meet, so it jumps with the
    proportions.  Taking each model's median first weights every model the
    same in every run.
    """
    if len(values) != len(strata):
        raise ValueError("one stratum per value")
    groups: dict = {}
    for value, stratum in zip(values, strata):
        groups.setdefault(stratum, []).append(value)
    return mean([median(group) for group in groups.values()])


def mean(values: List[float]) -> float:
    if not values:
        raise ValueError("mean of no samples")
    return math.fsum(values) / len(values)
