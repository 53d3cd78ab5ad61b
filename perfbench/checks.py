"""Correctness checks behind the benchmark's ``attempted``/``failed`` counts.

Every check is one attempt; a check that does not hold is one failure.  The
reference answers here are built in plain code from eagerly loaded profiles,
so they share nothing with the index-served fleet query path they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core import metrics as M
from repro.dlmonitor.callpath import FrameKind
from repro.fleet.differential import STATUS_NEW, STATUS_VANISHED

#: Relative tolerance for float totals that are summed in a different order.
REL_TOL = 1e-9
#: Kernels each ``top_kernels`` query asks for.
TOP_K = 10


class Checks:
    """Counts attempted and failed checks, keeping the first few failure messages."""

    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close_enough(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))


# -- collection ---------------------------------------------------------------------


def check_gpu_time(checks: Checks, attributed: float, device_seconds: float) -> bool:
    """Attributed GPU time equals the time the device spent in kernels."""
    return checks.expect(
        device_seconds > 0 and close_enough(attributed, device_seconds),
        f"attributed gpu_time {attributed!r} != device kernel time {device_seconds!r}")


def check_kernel_count(checks: Checks, counted: int, launches: int) -> bool:
    """Every launch became exactly one kernel observation."""
    return checks.expect(
        launches > 0 and counted == launches,
        f"kernel_count {counted} != kernel launches {launches}")


def check_correlations(checks: Checks, unresolved: int, pending: int) -> bool:
    """After ``stop()`` no delivery went unmatched and no correlation is left open."""
    return checks.expect(
        unresolved == 0 and pending == 0,
        f"correlations after stop: {unresolved} unresolved, {pending} pending")


def check_transparency(checks: Checks, untraced: bytes, traced: bytes) -> bool:
    """The traced run saved the same profile bytes as the untraced run."""
    return checks.expect(
        bool(untraced) and untraced == traced,
        f"traced profile differs from untraced ({len(traced)} vs {len(untraced)} bytes)")


def check_regressions(checks: Checks, flagged: int, scaled: bool) -> bool:
    """Regression issues appear on exactly the scaled-up cycles."""
    return checks.expect(
        (flagged > 0) == scaled,
        f"{flagged} regression issue(s) on a {'scaled-up' if scaled else 'same-config'} cycle")


# -- fleet queries ------------------------------------------------------------------


@dataclass
class QueryAnswers:
    """What one pass of the fixed fleet query mix answered."""

    top_kernels: List[Tuple[str, float]] = field(default_factory=list)
    by_name: Dict[str, float] = field(default_factory=dict)
    total: float = 0.0
    #: ``name → (status, baseline count, baseline sum, candidate count, candidate sum)``.
    drift: Dict[str, Tuple[str, int, float, int, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class RunFacts:
    """What the reference needs of one stored run, read from its eagerly loaded profile.

    Stored runs are immutable, so a run's facts are computed once and kept
    for as long as the run stays in the store.
    """

    #: ``kernel name → (observations, gpu_time)``.
    kernels: Dict[str, Tuple[int, float]]
    #: ``gpu_time`` summed over every node.
    total: float


def run_facts(database) -> RunFacts:
    """Walk a loaded profile node by node, in plain code."""
    kernels: Dict[str, Tuple[int, float]] = {}
    total = 0.0
    for node in database.tree.all_nodes():
        total += node.exclusive.sum(M.METRIC_GPU_TIME)
        if node.kind != FrameKind.GPU_KERNEL:
            continue
        aggregate = node.exclusive.get(M.METRIC_GPU_TIME)
        if aggregate is None or aggregate.count == 0:
            continue
        count, seconds = kernels.get(node.name, (0, 0.0))
        kernels[node.name] = (count + aggregate.count, seconds + aggregate.total)
    return RunFacts(kernels, total)


def _kernel_rollup(runs: Iterable[RunFacts]) -> Dict[str, Tuple[int, float]]:
    """``kernel name → (observations, gpu_time)`` over every run."""
    rollup: Dict[str, Tuple[int, float]] = {}
    for run in runs:
        for name, (count, seconds) in run.kernels.items():
            total_count, total_seconds = rollup.get(name, (0, 0.0))
            rollup[name] = (total_count + count, total_seconds + seconds)
    return rollup


def reference_answers(everything: Sequence[RunFacts], baseline: Sequence[RunFacts],
                      candidate: Sequence[RunFacts]) -> QueryAnswers:
    """The query mix answered from facts read off eagerly loaded profiles."""
    by_name = {name: total for name, (_count, total) in _kernel_rollup(everything).items()}
    total = math.fsum(run.total for run in everything)
    ranked = sorted(by_name.items(), key=lambda item: -item[1])[:TOP_K]
    base, cand = _kernel_rollup(baseline), _kernel_rollup(candidate)
    drift = {}
    for name in set(base) | set(cand):
        b_count, b_sum = base.get(name, (0, 0.0))
        c_count, c_sum = cand.get(name, (0, 0.0))
        status = (STATUS_NEW if name not in base else
                  STATUS_VANISHED if name not in cand else "")
        drift[name] = (status, b_count, b_sum, c_count, c_sum)
    return QueryAnswers(top_kernels=ranked, by_name=by_name, total=total, drift=drift)


def _same_rollup(actual: Dict[str, float], expected: Dict[str, float]) -> bool:
    return set(actual) == set(expected) and all(
        close_enough(actual[name], expected[name]) for name in expected)


def _same_top(actual: List[Tuple[str, float]], expected: List[Tuple[str, float]],
              by_name: Dict[str, float]) -> bool:
    # Kernels with equal totals may come in either order, so compare the
    # ranked values and each returned name's own total.
    return (len(actual) == len(expected)
            and all(close_enough(a, e) for (_n, a), (_m, e) in zip(actual, expected))
            and all(name in by_name and close_enough(value, by_name[name])
                    for name, value in actual))


def _same_drift(actual, expected) -> bool:
    if set(actual) != set(expected):
        return False
    for name, (status, b_count, b_sum, c_count, c_sum) in expected.items():
        got_status, got_b_count, got_b_sum, got_c_count, got_c_sum = actual[name]
        if got_status != status and (status or got_status in (STATUS_NEW, STATUS_VANISHED)):
            return False
        if (got_b_count, got_c_count) != (b_count, c_count):
            return False
        if not (close_enough(got_b_sum, b_sum) and close_enough(got_c_sum, c_sum)):
            return False
    return True


def check_queries(checks: Checks, answers: QueryAnswers, reference: QueryAnswers) -> bool:
    """Each query of the mix equals the plain-code reference."""
    ok = checks.expect(_same_rollup(answers.by_name, reference.by_name),
                       "aggregate_by_name differs from the reference")
    ok &= checks.expect(_same_top(answers.top_kernels, reference.top_kernels,
                                  reference.by_name),
                        "top_kernels differs from the reference")
    ok &= checks.expect(reference.total > 0 and close_enough(answers.total, reference.total),
                        f"total_metric {answers.total!r} != reference {reference.total!r}")
    ok &= checks.expect(_same_drift(answers.drift, reference.drift),
                        "name_drift differs from the reference")
    return ok
