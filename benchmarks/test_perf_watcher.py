"""Fleet watcher overhead — idle polling and catalog-only dashboards.

Two gates for the live-monitoring layer:

* **idle polling is nearly free**: on the streaming-checkpoint benchmark
  shape (50k-node, 4-shard producer, one dirty shard per reseal) a watcher
  polling **8 live runs** that brought no new seal must cost the steady-state
  loop at most **1.05x** — an idle poll is one ``stat`` plus a 256-byte tail
  read per run (the :meth:`LazyProfileView.refresh` fast path), so following
  a fleet cannot tax the producers it follows.  Bare and polled passes run
  as alternating pairs, each from a full collection, and the gate reads the
  median of the per-pair ratios: the two passes of a pair share the
  machine's momentary speed, so load from other processes cancels inside
  the pair, and the median discards the pairs a preemption split;
* **dashboards never open profiles**: rendering the fleet dashboard over a
  **64-run** indexed store (plus a health time-series and an issue log) must
  answer entirely from the catalog, the fleet query index and the JSONL
  series — asserted via the ``storage.views_opened`` counter staying flat,
  not just by being fast.

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_watcher.py \
        --benchmark-only -q -s -m perf
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import pytest

from conftest import print_block

from repro.core import ProfileDatabase, ProfileMetadata, StreamingProfileWriter
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
from repro.fleet import FleetWatcher, ProfileStore
from repro.gui import render_dashboard
from repro.obs import TELEMETRY, HealthTimeSeries

pytestmark = pytest.mark.perf

# The producer mirrors benchmarks/test_perf_streaming.py: 4 shards ×
# (1 thread + 125 steps + 125×25 ops + 125×25×4 kernels) ≈ 50k nodes.
SHARDS = 4
STEPS = 125
OPERATORS = 25
KERNELS = 4
LIVE_RUNS = 8
MAX_POLL_OVERHEAD = 1.05
#: Alternating bare/polled pairs timed (odd: a true median).
PAIRS = 31

STORE_RUNS = 64
STORE_STEPS = 25
STORE_OPERATORS = 15

RECORD_METRICS = {
    M.METRIC_GPU_TIME: 1.25e-4,
    M.METRIC_KERNEL_COUNT: 1.0,
}


def build_producer() -> ProfileDatabase:
    tree = ShardedCallingContextTree("watcher-perf")
    for tid in range(1, SHARDS + 1):
        shard = tree.shard_for_tid(tid, thread_name=f"thread-{tid}")
        prefix = [root_frame("watcher-perf"), thread_frame(f"thread-{tid}", tid)]
        for step in range(STEPS):
            step_frame = python_frame("train.py", step, f"step_{step}")
            for op in range(OPERATORS):
                op_frame = framework_frame(f"aten::op_{op}")
                for kernel in range(KERNELS):
                    node = shard.insert(CallPath.of(prefix + [
                        step_frame, op_frame,
                        gpu_kernel_frame(f"kernel_{op}_{kernel}"),
                    ]))
                    shard.attribute_many(node, RECORD_METRICS)
    metadata = ProfileMetadata(program="watcher-perf", workload="watcher-perf",
                               device="A100")
    return ProfileDatabase(tree, metadata)


def build_small_run(name: str, steps: int, operators: int,
                    scale: float = 1.0) -> ProfileDatabase:
    tree = ShardedCallingContextTree(name)
    shard = tree.shard_for_tid(1, thread_name="main")
    prefix = [root_frame(name), thread_frame("main", 1)]
    for step in range(steps):
        step_frame = python_frame("train.py", step, f"step_{step}")
        for op in range(operators):
            node = shard.insert(CallPath.of(prefix + [
                step_frame, framework_frame(f"aten::op_{op}"),
                gpu_kernel_frame(f"kernel_{op}"),
            ]))
            shard.attribute_many(node, {M.METRIC_GPU_TIME: 1.25e-4 * scale,
                                        M.METRIC_KERNEL_COUNT: 1.0})
    metadata = ProfileMetadata(program=name, workload=name, device="A100")
    return ProfileDatabase(tree, metadata)


def dirty_one_shard(tree: ShardedCallingContextTree) -> None:
    shard = tree.shard_for_tid(1)
    for node in shard.kernels[::8]:
        shard.attribute_many(node, RECORD_METRICS)


def timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def timed_pairs(bare, polled):
    """Seconds of each bare and each polled pass, over alternating pairs.

    The order inside a pair flips every pair, so neither side always runs
    on the warmer cache, and every pass starts from a full collection, so
    the cyclic collector's expensive full passes cannot phase-lock onto one
    side of the alternation.
    """
    seconds = {bare: [], polled: []}
    for pair in range(PAIRS):
        for run in ((bare, polled) if pair % 2 == 0 else (polled, bare)):
            gc.collect()
            elapsed, _ = timed(run)
            seconds[run].append(elapsed)
    return seconds[bare], seconds[polled]


def best_of(trials: int, func):
    best, result = float("inf"), None
    for _trial in range(trials):
        seconds, result = timed(func)
        best = min(best, seconds)
    return best, result


class TestIdleWatcherOverhead:
    def test_polling_8_live_runs_costs_at_most_5_percent(self, once, tmp_path):
        # The producer under measurement: the streaming benchmark's
        # steady-state loop (dirty one shard, reseal).
        database = build_producer()
        tree = database.tree
        writer = StreamingProfileWriter(database,
                                        str(tmp_path / "producer.cctb"))
        writer.checkpoint()

        # The watched fleet: 8 live runs that stop sealing after their
        # first checkpoint — every poll over them is the idle fast path.
        watch_dir = tmp_path / "watch"
        watch_dir.mkdir()
        fleet_writers = []
        for index in range(LIVE_RUNS):
            live = build_small_run(f"live-{index}", steps=10, operators=10,
                                   scale=1.0 + 0.01 * index)
            live_writer = StreamingProfileWriter(
                live, str(watch_dir / f"live-{index}.cctb"))
            live_writer.checkpoint()
            fleet_writers.append(live_writer)

        store = ProfileStore(tmp_path / "store")
        watcher = FleetWatcher(str(watch_dir), store, scrub_every_s=None,
                               drift_every_s=None, snapshot_every_s=None,
                               dashboard_every_s=None)
        watcher.poll_once()  # attach the fleet once, outside the timing
        assert len(watcher.runs) == LIVE_RUNS

        def reseal():
            dirty_one_shard(tree)
            return writer.checkpoint()

        def reseal_while_polling():
            dirty_one_shard(tree)
            stats = writer.checkpoint()
            tick = watcher.poll_once()
            assert tick.advanced == []  # the fleet really was idle
            return stats

        assert reseal().dirty_shards == 1  # warm, outside the timing
        reseal_while_polling()
        bare_passes, polled_passes = timed_pairs(reseal, reseal_while_polling)
        watcher.close()
        writer.close()
        for live_writer in fleet_writers:
            live_writer.close()

        overhead = statistics.median(
            polled / bare for bare, polled in zip(bare_passes, polled_passes))
        bare_seconds = statistics.median(bare_passes)
        polled_seconds = statistics.median(polled_passes)
        once(lambda: None)  # record the run under pytest-benchmark
        print_block(
            f"idle watcher poll over {LIVE_RUNS} live runs riding the "
            f"streaming-checkpoint loop ({tree.stored_node_count()} nodes)",
            json.dumps({
                "live_runs": LIVE_RUNS,
                "pairs": PAIRS,
                "checkpoint_s_median": bare_seconds,
                "checkpoint_plus_poll_s_median": polled_seconds,
                "overhead_x": overhead,
                "poll_cost_ms": (polled_seconds - bare_seconds) * 1e3,
            }, indent=2))

        assert overhead <= MAX_POLL_OVERHEAD, (
            f"an idle watcher poll over {LIVE_RUNS} live runs must cost the "
            f"steady-state checkpoint loop at most {MAX_POLL_OVERHEAD}x, "
            f"got a median per-pair ratio of {overhead:.3f}x (medians "
            f"{bare_seconds * 1e3:.2f} ms -> {polled_seconds * 1e3:.2f} ms)")


class TestDashboardFromIndex:
    def test_64_run_dashboard_opens_no_profiles(self, once, tmp_path):
        store = ProfileStore(tmp_path / "fleet")
        for index in range(STORE_RUNS):
            store.ingest(build_small_run(f"dash-bench-{index}",
                                         steps=STORE_STEPS,
                                         operators=STORE_OPERATORS,
                                         scale=1.0 + 0.01 * index))
        assert len(store.fleet_index.run_ids()) == STORE_RUNS

        health = HealthTimeSeries(str(tmp_path / "health.jsonl"), fsync=False)
        issues = HealthTimeSeries(str(tmp_path / "issues.jsonl"), fsync=False)
        for tick in range(128):
            health.append({"gauges": {"watcher.runs_live": float(tick % 9)},
                           "counters": {"fleet.ingests": float(tick)}},
                          ts=float(tick))
        issues.append({"analysis": "regression", "node": "kernel_3",
                       "severity": "warning", "message": "gpu_time grew"},
                      ts=1.0)

        TELEMETRY.enable()
        try:
            opened_before = TELEMETRY.counter_value("storage.views_opened")
            seconds, page = best_of(3, lambda: render_dashboard(
                store=store, health=health, issue_log=issues))
            opened_after = TELEMETRY.counter_value("storage.views_opened")
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()

        assert f">{STORE_RUNS}</div>runs in store" in page
        assert "regression" in page

        once(lambda: None)  # record the run under pytest-benchmark
        print_block(
            f"dashboard render over a {STORE_RUNS}-run indexed store",
            json.dumps({
                "runs": STORE_RUNS,
                "render_s": seconds,
                "views_opened_during_render": opened_after - opened_before,
                "page_bytes": len(page),
            }, indent=2))

        # The acceptance gate: served from catalog + index + JSONL series,
        # not by opening stored profiles.
        assert opened_after == opened_before, (
            f"dashboard render opened {opened_after - opened_before:g} "
            f"profile view(s); it must answer from the index alone")
