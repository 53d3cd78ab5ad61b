"""Each correctness check passes on a correct input and counts a failure on a broken one."""

import pytest

from repro.core import CallingContextTree, CorrelationRegistry, ProfileDatabase, ProfileMetadata
from repro.core import metrics as M
from repro.dlmonitor.callpath import (CallPath, framework_frame, gpu_kernel_frame, root_frame,
                                      thread_frame)
from repro.fleet import ProfileStore

from perfbench import checks as C
from perfbench.jobs import NULL_TRACER, query_mix

KERNEL_SECONDS = {"gemm": (2e-3, 3e-3), "softmax": (5e-4,), "copy": (1e-4, 1e-4, 2e-4)}


def kernel_tree(drop=None, scale=1.0):
    """A small profile with one observation per launch, minus ``drop`` (kernel, index)."""
    tree = CallingContextTree("bench")
    launches, device_seconds = 0, 0.0
    for op_index, (kernel, durations) in enumerate(sorted(KERNEL_SECONDS.items())):
        path = CallPath.of([root_frame("bench"), thread_frame("main", 1),
                            framework_frame(f"aten::op{op_index}"), gpu_kernel_frame(kernel)])
        node = tree.insert(path)
        for index, seconds in enumerate(durations):
            launches += 1
            device_seconds += seconds * scale
            if (kernel, index) == drop:
                continue
            tree.attribute_many(node, {M.METRIC_GPU_TIME: seconds * scale,
                                       M.METRIC_KERNEL_COUNT: 1.0})
    return tree, launches, device_seconds


def database(tree, workload="bench"):
    return ProfileDatabase(tree, ProfileMetadata(program="bench", workload=workload))


def test_gpu_time_and_kernel_count_hold_on_a_complete_tree():
    tree, launches, device_seconds = kernel_tree()
    checks = C.Checks()
    assert C.check_gpu_time(checks, tree.total_metric(M.METRIC_GPU_TIME), device_seconds)
    assert C.check_kernel_count(checks, int(tree.total_metric(M.METRIC_KERNEL_COUNT)), launches)
    assert (checks.attempted, checks.failed) == (2, 0)


def test_a_dropped_kernel_observation_fails_both_collection_checks():
    tree, launches, device_seconds = kernel_tree(drop=("copy", 1))
    checks = C.Checks()
    assert not C.check_gpu_time(checks, tree.total_metric(M.METRIC_GPU_TIME), device_seconds)
    assert not C.check_kernel_count(checks, int(tree.total_metric(M.METRIC_KERNEL_COUNT)),
                                    launches)
    assert (checks.attempted, checks.failed) == (2, 2)
    assert checks.failed_frac == 1.0
    assert len(checks.messages) == 2


def test_gpu_time_tolerates_summation_order_but_not_a_real_difference():
    checks = C.Checks()
    assert C.check_gpu_time(checks, 0.1 + 0.2, 0.3)
    assert not C.check_gpu_time(checks, 0.3 * (1 + 1e-6), 0.3)
    assert not C.check_gpu_time(checks, 0.0, 0.0)  # a run that launched nothing proves nothing
    assert checks.failed == 2


def test_correlation_check_counts_unresolved_and_pending_entries():
    tree, _, _ = kernel_tree()
    node = tree.root
    clean = CorrelationRegistry()
    clean.register(1, node)
    clean.resolve(1)
    clean.release(1)
    pending = CorrelationRegistry()
    pending.register(7, node)  # launched, never delivered
    unresolved = CorrelationRegistry()
    unresolved.resolve(99)  # delivered for a launch nobody registered
    checks = C.Checks()
    assert C.check_correlations(checks, clean.unresolved, clean.pending_count)
    assert not C.check_correlations(checks, pending.unresolved, pending.pending_count)
    assert not C.check_correlations(checks, unresolved.unresolved, unresolved.pending_count)
    assert (checks.attempted, checks.failed) == (3, 2)


def test_regression_check_wants_issues_on_exactly_the_scaled_up_cycles():
    checks = C.Checks()
    assert C.check_regressions(checks, 3, scaled=True)
    assert C.check_regressions(checks, 0, scaled=False)
    assert not C.check_regressions(checks, 0, scaled=True)
    assert not C.check_regressions(checks, 1, scaled=False)
    assert (checks.attempted, checks.failed) == (4, 2)


def test_transparency_check_compares_bytes():
    checks = C.Checks()
    assert C.check_transparency(checks, b"profile", b"profile")
    assert not C.check_transparency(checks, b"profile", b"profilf")
    assert not C.check_transparency(checks, b"", b"")
    assert checks.failed == 2


def _store_with_runs(tmp_path):
    store = ProfileStore(str(tmp_path / "store"))
    run_ids = [store.ingest(database(kernel_tree(scale=scale)[0])).run_id
               for scale in (1.0, 1.5, 2.0)]
    return store, run_ids


def test_fleet_query_mix_matches_the_plain_reference(tmp_path):
    store, run_ids = _store_with_runs(tmp_path)
    facts = [C.run_facts(store.load(run_id)) for run_id in run_ids]
    answers = query_mix(store, run_ids[-1], run_ids[:-1], NULL_TRACER)
    reference = C.reference_answers(facts, facts[:-1], facts[-1:])
    checks = C.Checks()
    assert C.check_queries(checks, answers, reference)
    assert (checks.attempted, checks.failed) == (4, 0)
    expected_total = sum(sum(durations) for durations in KERNEL_SECONDS.values()) * 4.5
    assert reference.total == pytest.approx(expected_total, rel=1e-12)
    assert [name for name, _ in reference.top_kernels][0] == "gemm"


def test_each_wrong_query_answer_is_a_counted_failure(tmp_path):
    store, run_ids = _store_with_runs(tmp_path)
    facts = [C.run_facts(store.load(run_id)) for run_id in run_ids]
    reference = C.reference_answers(facts, facts[:-1], facts[-1:])

    def answers():
        return query_mix(store, run_ids[-1], run_ids[:-1], NULL_TRACER)

    wrong_rollup = answers()
    wrong_rollup.by_name["gemm"] *= 1.01
    missing_name = answers()
    del missing_name.by_name["copy"]
    wrong_top = answers()
    wrong_top.top_kernels = wrong_top.top_kernels[1:]
    wrong_total = answers()
    wrong_total.total += 1e-3
    wrong_drift = answers()
    status, b_count, b_sum, c_count, c_sum = wrong_drift.drift["softmax"]
    wrong_drift.drift["softmax"] = (status, b_count - 1, b_sum, c_count, c_sum)

    for broken in (wrong_rollup, missing_name, wrong_top, wrong_total, wrong_drift):
        checks = C.Checks()
        assert not C.check_queries(checks, broken, reference)
        assert checks.attempted == 4
        assert checks.failed == 1, checks.messages
