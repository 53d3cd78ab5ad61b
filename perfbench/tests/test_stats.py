"""The benchmark's statistics: the tail rule and overhead from interleaved steps."""

import pytest

from perfbench.stats import (MIN_BEYOND, PROFILED, UNPROFILED, median, nearest_rank,
                             step_ratios, stratified_median, tail)


def test_tail_picks_p95_once_ten_samples_lie_beyond_it():
    values = list(range(1, 201))  # 200 samples: p95 has exactly 10 beyond it
    result = tail(values)
    assert result.percentile == 95.0
    assert result.value == 190
    assert result.beyond == MIN_BEYOND
    assert result.samples == 200


def test_tail_falls_back_to_a_lower_percentile_with_fewer_samples():
    result = tail(range(1, 101))  # p95 would leave only 5 beyond
    assert result.percentile == 90.0
    assert result.value == 90
    assert result.beyond == 10
    assert result.samples == 100


def test_tail_uses_p99_with_enough_samples():
    result = tail(range(1, 1001))
    assert (result.percentile, result.value, result.beyond) == (99.0, 990, 10)


def test_tail_of_few_samples_reports_the_median_and_its_thin_evidence():
    result = tail([3.0, 1.0, 2.0])
    assert result.percentile == 50.0
    assert result.value == 2.0
    assert result.beyond == 1
    assert result.samples == 3


def test_tail_ignores_input_order():
    assert tail([5, 1, 4, 2, 3] * 10) == tail(sorted([5, 1, 4, 2, 3] * 10))


def test_nearest_rank_counts_samples_strictly_beyond():
    assert nearest_rank([1, 2, 3, 4], 50.0) == (2, 2)
    assert nearest_rank([1, 2, 3, 4], 100.0) == (4, 0)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


def test_overhead_of_interleaved_steps_cancels_machine_drift():
    # The machine slows down steadily; each profiled step costs 3x an
    # unprofiled one at the same moment.  Interleaved steps see the same
    # drift, so the median ratio stays near 3.
    steps = []
    clock = 0
    for _pair in range(40):
        for kind, cost in ((UNPROFILED, 1.0), (PROFILED, 3.0)):
            clock += 1
            steps.append((kind, cost * (1.0 + 0.01 * clock)))
    ratios = step_ratios(steps)
    assert len(ratios) == 40
    assert stratified_median(ratios, ["model"] * 40) == pytest.approx(3.0, rel=0.03)

    # Timing all unprofiled steps first and all profiled steps after them
    # under the same drift inflates the ratio well past that.
    sequential = ([(UNPROFILED, 1.0 * (1.0 + 0.01 * t)) for t in range(1, 41)]
                  + [(PROFILED, 3.0 * (1.0 + 0.01 * t)) for t in range(41, 81)])
    assert median(step_ratios(sequential)) > 3.0 * 1.25


def test_step_ratios_divide_by_the_median_unprofiled_step():
    steps = [(PROFILED, 4.0), (UNPROFILED, 1.0), (PROFILED, 6.0), (UNPROFILED, 3.0),
             (UNPROFILED, 2.0)]
    assert step_ratios(steps) == [2.0, 3.0]


def test_overhead_weights_every_model_the_same():
    # One cycle per model; the small model ran three cycles, the big one one.
    ratios, models = [], []
    for model, ratio, cycles in (("small", 2.0, 3), ("big", 4.0, 1)):
        for _ in range(cycles):
            ratios += step_ratios([(UNPROFILED, 1.0), (PROFILED, ratio)])
            models.append(model)
    assert stratified_median(ratios, models) == 3.0


def test_overhead_needs_both_kinds_of_step():
    with pytest.raises(ValueError):
        step_ratios([(PROFILED, 1.0)])
    with pytest.raises(ValueError):
        step_ratios([("warm-up", 1.0), (UNPROFILED, 1.0)])


def test_stratified_median_weights_every_stratum_the_same():
    # Two models, one sampled three times as often: the plain median is the
    # busy model's, the stratified one sits between the two.
    values = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 9.0]
    strata = ["small"] * 6 + ["big"] * 2
    assert stratified_median(values, strata) == 5.0
    assert stratified_median([2.0, 4.0, 6.0], ["only"] * 3) == 4.0


def test_stratified_median_needs_one_stratum_per_value():
    with pytest.raises(ValueError):
        stratified_median([1.0, 2.0], ["a"])
