"""Telemetry overhead — the observability layer must be near-free.

``repro.obs`` instruments the cold seams (streaming seals, block
decodes, catalog locks, fleet queries).  This benchmark gates the
promise that instrumentation never becomes the workload:

* **enabled** — recording histograms and spans on top of the always-on
  counters while running a streaming-checkpoint loop and a fleet-query
  sweep must cost at most **1.10x** the same work with telemetry off.
  Enabled and disabled passes run as alternating pairs on one fixture
  and the gate reads the median of the per-pair ratios: the two passes
  of a pair share the machine's momentary speed, so load from other
  processes cancels inside the pair, and the median discards the pairs
  a preemption split;
* **disabled** (the default) — counters still record, and every other
  seam costs one attribute check.  The ``count()`` calls a pass makes
  times the measured cost of an always-on ``count()``, plus the
  remaining registry calls times the measured cost of one
  ``TELEMETRY.enabled`` check, must stay under **2%** of the disabled
  runtime (the ≤1.02x budget), so shipping the instrumentation does not
  tax users who never turn it on.

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_telemetry.py \
        --benchmark-only -q -s -m perf
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import pytest

from conftest import print_block

from repro.core import ProfileDatabase, StreamingProfileWriter
from repro.core import metrics as M
from repro.core.cct import ShardedCallingContextTree
from repro.dlmonitor.callpath import (
    CallPath,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.fleet import ProfileStore
from repro.obs import TELEMETRY

pytestmark = pytest.mark.perf

SHARDS = 4
STEPS = 40
OPERATORS = 20
KERNELS = 4
# 4 shards × (1 + 40 + 40×20 + 40×20×4) ≈ 16k nodes: big enough that the
# measured seconds dominate scheduler noise, small enough to stay quick.

RECORD_METRICS = {
    M.METRIC_GPU_TIME: 1.25e-4,
    M.METRIC_KERNEL_COUNT: 1.0,
}

#: Enabled recording may cost at most this much on macro workloads.
ENABLED_BUDGET = 1.10
#: Disabled guards may cost at most this fraction of the runtime.
DISABLED_BUDGET = 0.02

#: Reseals per streaming pass.
RESEALS = 2
#: Steps per profile in the fleet shape's two-run store.  Short passes
#: let many pairs fit, and each pair's two passes then sit close in time.
FLEET_STEPS = 5
#: Alternating enabled/disabled pairs timed per shape (odd: a true median).
PAIRS = 61
#: Best-of trials for the per-call cost microbenchmarks.
TRIALS = 3


def build_profile(name: str, steps: int = STEPS) -> ProfileDatabase:
    tree = ShardedCallingContextTree(name)
    for tid in range(1, SHARDS + 1):
        shard = tree.shard_for_tid(tid, thread_name=f"thread-{tid}")
        prefix = [root_frame(name), thread_frame(f"thread-{tid}", tid)]
        for step in range(steps):
            step_frame = python_frame("train.py", step, f"step_{step}")
            for op in range(OPERATORS):
                op_frame = framework_frame(f"aten::op_{op}")
                for kernel in range(KERNELS):
                    path = CallPath.of(prefix + [
                        step_frame, op_frame,
                        gpu_kernel_frame(f"kernel_{op}_{kernel}"),
                    ])
                    node = shard.insert(path)
                    shard.attribute_many(node, RECORD_METRICS)
    return ProfileDatabase(tree)


def timed_pairs(run):
    """Disabled and enabled seconds of each pass, over alternating pairs.

    Both sides run on the same fixture; the order inside a pair flips
    every pair, so neither side always runs on the warmer cache.  Every
    pass starts from a full collection: a pass allocates enough to
    trigger the cyclic collector many times, and without a common
    starting state its one expensive full collection phase-locks onto
    one side of the alternation (a ~40% bias on the streaming shape on
    a shared 2-core machine).
    """
    seconds = {False: [], True: []}
    for pair in range(PAIRS):
        for enabled in ((False, True) if pair % 2 == 0 else (True, False)):
            gc.collect()
            if enabled:
                TELEMETRY.enable()
            try:
                start = time.perf_counter()
                run()
                seconds[enabled].append(time.perf_counter() - start)
            finally:
                TELEMETRY.disable()
    return seconds[False], seconds[True]


def streaming_shape(tmp_path, label: str):
    """Attribute-then-reseal rounds over one streamed profile.

    Each round dirties one shard (round-robin) and reseals; the first
    call also writes the initial full seal.
    """
    database = build_profile(f"telemetry-perf-{label}")
    writer = StreamingProfileWriter(database,
                                    str(tmp_path / f"{label}.cctb"))

    def run():
        for reseal in range(RESEALS):
            shard = database.tree.shard_for_tid(1 + reseal % SHARDS)
            for node in shard.kernels[::16]:
                shard.attribute_many(node, RECORD_METRICS)
            writer.checkpoint()

    return run


def fleet_shape(tmp_path, label: str):
    """Fleet-query sweep over a two-run store (ingest done in setup)."""
    store = ProfileStore(str(tmp_path / f"fleet-{label}"))
    for run in range(2):
        database = build_profile(f"telemetry-perf-{label}-{run}",
                                 steps=FLEET_STEPS)
        database.metadata.workload = "telemetry-perf"
        store.ingest(database)

    def run():
        # A realistic fleet pass: one aggregator, a materializing merge,
        # then an index-query sweep.  The merge gives the pass enough
        # substance that per-span cost amortizes below the gate.
        with store.aggregator(workload="telemetry-perf") as aggregator:
            aggregator.merged_tree()
            for _ in range(10):
                aggregator.total_metric(M.METRIC_GPU_TIME)
                aggregator.top_kernels(k=10)
                aggregator.aggregate_by_name(metric=M.METRIC_GPU_TIME)

    return run


def counted_telemetry_calls(run):
    """Run once with telemetry on, counting every registry call.

    Returns ``(counts, guarded)``: the ``count()`` calls, which still
    record while telemetry is disabled, and every other registry call.
    Each of those sits behind at most one ``TELEMETRY.enabled`` check, so
    ``guarded`` is a (conservative) upper bound on how many guard checks
    the disabled path performs.
    """
    calls = {"count": 0, "other": 0}
    names = ("count", "observe", "span", "gauge_set", "gauge_add")
    originals = {name: getattr(TELEMETRY, name) for name in names}

    def counting(name):
        original = originals[name]
        kind = "count" if name == "count" else "other"

        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return original(*args, **kwargs)
        return wrapper

    TELEMETRY.enable()
    for name in names:
        setattr(TELEMETRY, name, counting(name))
    try:
        run()
    finally:
        for name in names:
            delattr(TELEMETRY, name)  # back to the class methods
        TELEMETRY.disable()
    return calls["count"], calls["other"]


def per_call_seconds(call) -> float:
    """Cost of one ``call()``, best of trials."""
    iterations = 200_000
    best = float("inf")
    for _ in range(TRIALS):
        start = time.perf_counter()
        for _ in range(iterations):
            call()
        best = min(best, time.perf_counter() - start)
    return best / iterations


def guard_check() -> None:
    if TELEMETRY.enabled:  # pragma: no cover - never taken
        TELEMETRY.observe("never", 0.0)


def always_on_count() -> None:
    TELEMETRY.count("bench.always_on")


class TestTelemetryOverhead:
    @pytest.mark.parametrize("shape", ["streaming", "fleet"])
    def test_enabled_and_disabled_budgets(self, shape, once, tmp_path):
        factory = streaming_shape if shape == "streaming" else fleet_shape
        TELEMETRY.disable()
        TELEMETRY.reset()
        run = factory(tmp_path, shape)
        try:
            run()  # warm caches/allocators outside the measurement
            TELEMETRY.enable()
            run()
            TELEMETRY.disable()
            TELEMETRY.reset()
            disabled_passes, enabled_passes = timed_pairs(run)
            spans_recorded = TELEMETRY.snapshot()["spans"]["recorded"]
            count_calls, guarded_calls = counted_telemetry_calls(run)
            # Both costs are measured with the registry disabled, the
            # state the disabled model prices.
            count_seconds = per_call_seconds(always_on_count)
            guard_seconds = per_call_seconds(guard_check)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        disabled_seconds = statistics.median(disabled_passes)
        enabled_ratio = statistics.median(
            enabled / disabled
            for disabled, enabled in zip(disabled_passes, enabled_passes))
        # The guard loop's own call overhead is charged to every guard:
        # conservative, the real seams inline the check.
        disabled_fraction = ((count_calls * count_seconds
                              + guarded_calls * guard_seconds)
                             / max(disabled_seconds, 1e-12))
        report = {
            "shape": shape,
            "pairs": PAIRS,
            "disabled_s_median": disabled_seconds,
            "enabled_s_median": statistics.median(enabled_passes),
            "enabled_ratio": enabled_ratio,
            "enabled_budget": ENABLED_BUDGET,
            "count_calls_per_pass": count_calls,
            "per_count_ns": count_seconds * 1e9,
            "guarded_calls_per_pass": guarded_calls,
            "per_guard_ns": guard_seconds * 1e9,
            "disabled_overhead_fraction": disabled_fraction,
            "disabled_budget": DISABLED_BUDGET,
            "spans_recorded_enabled": spans_recorded,
        }
        once(lambda: None)  # record the run under pytest-benchmark
        print_block(f"telemetry overhead ({shape})",
                    json.dumps(report, indent=2))

        assert spans_recorded > 0, "enabled run must actually record spans"
        # Enabled recording stays within its macro budget.
        assert enabled_ratio <= ENABLED_BUDGET, (
            f"telemetry enabled costs {enabled_ratio:.3f}x on the {shape} "
            f"shape (budget {ENABLED_BUDGET}x)")
        # Counters plus disabled guards stay within the ≤1.02x budget.
        assert disabled_fraction <= DISABLED_BUDGET, (
            f"always-on counters and disabled guards cost "
            f"{disabled_fraction * 100:.2f}% of the {shape} runtime "
            f"(budget {DISABLED_BUDGET * 100:.0f}%)")
