"""Tests for repro.obs: the self-telemetry layer (PR 9).

Covers the registry primitives (counters exact under threads, log2
histogram buckets, the Welford state matching the storage recurrence),
span nesting across threads and its Chrome ``trace_event`` round-trip,
the always-on counters (catalog-lock statistics among them), the
degradation-report schema,
the CLI renderer — and the acceptance path: one instrumented runner
invocation producing a Perfetto-loadable trace whose spans cover the
runner, streaming, storage and fleet layers with counters that match
independently derived values.
"""

import json
import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.storage import accumulate_name_state
from repro.experiments.runner import PROFILER_DEEPCONTEXT, run_named_workload
from repro.fleet import ProfileStore, catalog_lock_stats
from repro.fleet.store import CatalogLockTimeout, _CatalogLock
from repro.obs import (BUCKET_BASE, BUCKET_COUNT, SNAPSHOT_VERSION, TELEMETRY,
                       HealthTimeSeries, Histogram, Telemetry, bucket_index,
                       bucket_upper_bound, diff_snapshots, iter_span_children)
from repro.obs.cli import main as obs_main


@pytest.fixture(autouse=True)
def _quiesce_global_telemetry():
    """Every test leaves the process-wide registry disabled and empty."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


# ---------------------------------------------------------------------------
# Buckets and histograms
# ---------------------------------------------------------------------------

class TestBuckets:
    def test_at_or_below_base_lands_in_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(BUCKET_BASE) == 0

    def test_upper_bounds_are_inclusive(self):
        for index in (1, 2, 7, 30, BUCKET_COUNT - 1):
            assert bucket_index(bucket_upper_bound(index)) == index

    def test_value_just_above_bound_moves_up(self):
        assert bucket_index(bucket_upper_bound(7) * 1.001) == 8

    def test_huge_values_clamp_into_top_bucket(self):
        assert bucket_index(1e30) == BUCKET_COUNT - 1

    @given(st.floats(min_value=1e-12, max_value=1e12,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_bucket_invariant(self, value):
        index = bucket_index(value)
        assert 0 <= index < BUCKET_COUNT
        if index < BUCKET_COUNT - 1:  # the top bucket is a clamp
            assert value <= bucket_upper_bound(index)
        if 0 < index:
            assert value > bucket_upper_bound(index - 1)


class TestHistogram:
    def test_summary_fields(self):
        histogram = Histogram()
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        payload = histogram.to_dict()
        assert payload["count"] == 3
        assert payload["sum"] == pytest.approx(6.0)
        assert payload["min"] == 1.0
        assert payload["max"] == 3.0
        assert payload["mean"] == pytest.approx(2.0)
        assert payload["m2"] == pytest.approx(2.0)

    def test_buckets_report_only_nonzero_rows(self):
        histogram = Histogram()
        histogram.observe(1e-9)
        histogram.observe(1.0)
        rows = histogram.to_dict()["buckets"]
        assert len(rows) == 2
        for index, upper, count in rows:
            assert upper == bucket_upper_bound(index)
            assert count == 1

    @given(st.lists(st.floats(min_value=1e-9, max_value=1e3,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_welford_state_matches_storage_recurrence(self, values):
        histogram = Histogram()
        totals = {}
        for value in values:
            histogram.observe(value)
            accumulate_name_state(totals, "k", 1, value, value, value,
                                  value, 0.0)
        count, total, minimum, maximum, mean, m2 = totals["k"]
        assert histogram.count == count
        assert histogram.total == total
        assert histogram.minimum == minimum
        assert histogram.maximum == maximum
        assert histogram.mean == mean
        assert histogram.m2 == m2


# ---------------------------------------------------------------------------
# Counters, gauges, enable/disable
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_disabled_registry_records_nothing(self):
        """...except counters, which are always on."""
        telemetry = Telemetry()
        telemetry.count("a")
        telemetry.count("a", 2.0)
        telemetry.gauge_set("b", 2.0)
        telemetry.observe("c", 0.5)
        with telemetry.span("d"):
            pass
        snapshot = telemetry.snapshot()
        assert not snapshot["enabled"]
        assert snapshot["counters"] == {"a": 3.0}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}
        assert snapshot["spans"]["recorded"] == 0

    def test_disabled_span_is_the_shared_noop(self):
        telemetry = Telemetry()
        assert telemetry.span("a") is telemetry.span("b")

    def test_gauges_last_write_and_additive(self):
        telemetry = Telemetry()
        telemetry.enable()
        telemetry.gauge_set("level", 3.0)
        telemetry.gauge_set("level", 1.0)
        telemetry.gauge_add("level", 0.5)
        assert telemetry.snapshot()["gauges"]["level"] == pytest.approx(1.5)

    def test_reset_clears_everything(self):
        telemetry = Telemetry()
        telemetry.enable()
        telemetry.count("a")
        with telemetry.span("s"):
            pass
        telemetry.reset()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"]["recorded"] == 0
        assert telemetry.enabled  # reset does not flip the switch

    @given(st.lists(st.floats(min_value=0.001, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=20),
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_counters_exact_under_threaded_increments(self, amounts,
                                                      thread_count):
        telemetry = Telemetry()
        telemetry.enable()

        def work():
            for amount in amounts:
                telemetry.count("shared", amount)

        threads = [threading.Thread(target=work)
                   for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = 0.0
        for _ in range(thread_count):
            for amount in amounts:
                expected += amount
        # Bit-exact: every bump happens under the registry lock, so the
        # additions apply in *some* serial order; summing the same
        # amounts serially is one such order.  Tolerance covers the
        # reordering only.
        assert telemetry.counter_value("shared") == pytest.approx(
            expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Spans and the Chrome trace round-trip
# ---------------------------------------------------------------------------

class TestSpans:
    def test_nesting_and_parent_ids(self):
        telemetry = Telemetry()
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner.first"):
                pass
            with telemetry.span("inner.second"):
                pass
        spans = telemetry.spans()
        by_name = {span[0]: span for span in spans}
        outer_id = by_name["outer"][4]
        assert by_name["outer"][5] is None
        assert by_name["inner.first"][5] == outer_id
        assert by_name["inner.second"][5] == outer_id
        # Children exit before their parent, so the parent records last.
        assert spans[-1][0] == "outer"
        children = list(iter_span_children(spans, outer_id))
        assert {child[0] for child in children} == {"inner.first",
                                                    "inner.second"}

    def test_ring_buffer_drops_oldest_and_counts(self):
        telemetry = Telemetry(span_capacity=4)
        telemetry.enable()
        for index in range(10):
            with telemetry.span(f"s{index}"):
                pass
        spans = telemetry.spans()
        assert [span[0] for span in spans] == ["s6", "s7", "s8", "s9"]
        assert telemetry.snapshot()["spans"] == {
            "recorded": 4, "dropped": 6, "capacity": 4}

    def test_chrome_trace_round_trip_multithreaded(self, tmp_path):
        telemetry = Telemetry()
        telemetry.enable()
        # All workers meet at the barrier, so their threads coexist and
        # the OS cannot recycle one ident for two of them.
        barrier = threading.Barrier(3)

        def worker(label):
            with telemetry.span(f"worker.{label}", label=label):
                barrier.wait()
                with telemetry.span(f"worker.{label}.step"):
                    pass

        with telemetry.span("main.run"):
            threads = [threading.Thread(target=worker, args=(str(i),))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        path = str(tmp_path / "trace.json")
        telemetry.export_trace(path)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 7  # main.run + 3 * (worker + step)

        # Every thread that recorded spans gets one thread_name metadata
        # event; tids are real integer thread idents.
        span_tids = {e["tid"] for e in complete}
        assert len(span_tids) == 4  # main + 3 workers
        assert {e["tid"] for e in metadata} == span_tids
        assert all(e["name"] == "thread_name" for e in metadata)
        assert all(isinstance(e["tid"], int) for e in complete)

        by_id = {e["args"]["span_id"]: e for e in complete}
        for event in complete:
            assert event["pid"] == os.getpid()
            assert event["cat"] in ("main", "worker")
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["dur"], float) and event["dur"] >= 0.0
            parent_id = event["args"].get("parent_id")
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            # Same thread, and temporal containment (epsilon covers the
            # 3-decimal microsecond rounding of ts/dur).
            assert parent["tid"] == event["tid"]
            assert event["ts"] >= parent["ts"] - 0.01
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 0.01)

        # Parent links are per-thread: each step nests under its worker
        # span; worker spans (other threads) and main.run are roots.
        steps = [e for e in complete if e["name"].endswith(".step")]
        assert len(steps) == 3
        main_run = next(e for e in complete if e["name"] == "main.run")
        for step in steps:
            worker = by_id[step["args"]["parent_id"]]
            assert worker["name"] == step["name"][:-len(".step")]
            assert "parent_id" not in worker["args"]
        assert "parent_id" not in main_run["args"]

    def test_snapshot_export_and_schema(self, tmp_path):
        telemetry = Telemetry()
        telemetry.enable()
        telemetry.count("a", 2.0)
        telemetry.observe("b", 0.25)
        path = str(tmp_path / "metrics.json")
        telemetry.export_snapshot(path)
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["enabled"] is True
        assert snapshot["counters"] == {"a": 2.0}
        assert snapshot["histograms"]["b"]["count"] == 1
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# Catalog lock statistics: ordinary always-on registry counters
# ---------------------------------------------------------------------------

class TestCatalogLockStats:
    def test_acquire_counts_with_telemetry_disabled(self, tmp_path):
        TELEMETRY.reset()
        lock = _CatalogLock(str(tmp_path / "catalog.lock"))
        with lock:
            pass
        stats = catalog_lock_stats()
        assert set(stats) == {"acquires", "contended", "wait_seconds",
                              "stale_breaks", "timeouts"}
        assert stats["acquires"] == 1.0
        assert stats["contended"] == 0.0
        assert stats["timeouts"] == 0.0
        assert stats["wait_seconds"] >= 0.0
        assert not TELEMETRY.enabled
        counters = TELEMETRY.snapshot()["counters"]
        assert counters["fleet.lock_acquires"] == 1.0
        assert counters["fleet.lock_wait_seconds"] == stats["wait_seconds"]

    def test_timeout_reports_observed_wait(self, tmp_path):
        TELEMETRY.reset()
        path = str(tmp_path / "catalog.lock")
        holder = _CatalogLock(path)
        holder.acquire()
        waiter = _CatalogLock(path, timeout_s=0.05)
        with pytest.raises(CatalogLockTimeout) as excinfo:
            waiter.acquire()
        message = str(excinfo.value)
        assert "waited" in message
        assert "0.05s" in message
        stats = catalog_lock_stats()
        assert stats["timeouts"] == 1.0
        assert stats["acquires"] == 1.0  # the holder
        assert stats["contended"] == 0.0  # a timed-out waiter never acquired
        assert stats["wait_seconds"] >= 0.05
        holder.release()

    def test_stale_break_is_counted(self, tmp_path):
        TELEMETRY.reset()
        path = str(tmp_path / "catalog.lock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("999999\n")
        ancient = 10_000
        os.utime(path, (os.path.getmtime(path) - ancient,
                        os.path.getmtime(path) - ancient))
        lock = _CatalogLock(path, timeout_s=1.0)
        with lock:
            pass
        assert catalog_lock_stats()["stale_breaks"] == 1.0


# ---------------------------------------------------------------------------
# CLI renderer
# ---------------------------------------------------------------------------

class TestCli:
    def _exports(self, tmp_path):
        telemetry = Telemetry()
        telemetry.enable()
        telemetry.count("fleet.ingests", 3.0)
        telemetry.gauge_set("fleet.runs", 3.0)
        telemetry.observe("streaming.seal_seconds", 0.01)
        with telemetry.span("fleet.store.ingest"):
            with telemetry.span("fleet.catalog.lock"):
                pass
        snapshot = str(tmp_path / "metrics.json")
        trace = str(tmp_path / "trace.json")
        telemetry.export_snapshot(snapshot)
        telemetry.export_trace(trace)
        return snapshot, trace

    def test_renders_snapshot(self, tmp_path, capsys):
        snapshot, _ = self._exports(tmp_path)
        assert obs_main([snapshot]) == 0
        out = capsys.readouterr().out
        assert "fleet.ingests" in out
        assert "streaming.seal_seconds" in out
        assert "recorded=2" in out

    def test_renders_trace(self, tmp_path, capsys):
        _, trace = self._exports(tmp_path)
        assert obs_main([trace]) == 0
        out = capsys.readouterr().out
        assert "2 span(s)" in out
        assert "fleet.store.ingest" in out

    def test_rejects_unreadable_and_unrecognized_input(self, tmp_path,
                                                       capsys):
        missing = str(tmp_path / "nope.json")
        assert obs_main([missing]) == 2
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"hello": 1}))
        assert obs_main([str(other)]) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Snapshot diffing and the --diff CLI
# ---------------------------------------------------------------------------

class TestDiffSnapshots:
    def _snapshot_pair(self):
        telemetry = Telemetry()
        telemetry.enable()
        telemetry.count("fleet.ingests", 3.0)
        telemetry.count("storage.blocks_decoded", 10.0)
        telemetry.gauge_set("watcher.runs_live", 2.0)
        telemetry.gauge_set("watcher.only_before", 1.0)
        telemetry.observe("streaming.seal_seconds", 0.010)
        with telemetry.span("watcher.poll"):
            pass
        baseline = telemetry.snapshot()
        telemetry.count("fleet.ingests", 2.0)
        telemetry.gauge_set("watcher.runs_live", 5.0)
        telemetry.observe("streaming.seal_seconds", 100.0)
        with telemetry.span("watcher.poll"):
            pass
        candidate = telemetry.snapshot()
        # A gauge the candidate no longer publishes.
        del candidate["gauges"]["watcher.only_before"]
        return baseline, candidate

    def test_counters_subtract_and_zero_deltas_are_omitted(self):
        baseline, candidate = self._snapshot_pair()
        diff = diff_snapshots(baseline, candidate)
        assert diff["counters"] == {"fleet.ingests": 2.0}
        assert "storage.blocks_decoded" not in diff["counters"]

    def test_gauges_are_last_wins_with_vanished_listed(self):
        baseline, candidate = self._snapshot_pair()
        diff = diff_snapshots(baseline, candidate)
        assert diff["gauges"]["watcher.runs_live"] == 5.0
        assert diff["gauges_vanished"] == ["watcher.only_before"]

    def test_histogram_buckets_diff_row_by_row(self):
        baseline, candidate = self._snapshot_pair()
        diff = diff_snapshots(baseline, candidate)
        histogram = diff["histograms"]["streaming.seal_seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] == pytest.approx(100.0)
        # Exactly one new observation, in the bucket covering 100.0.
        assert len(histogram["buckets"]) == 1
        index, upper, delta = histogram["buckets"][0]
        assert delta == 1
        assert index == bucket_index(100.0)
        assert upper == bucket_upper_bound(index)

    def test_span_and_name_only_on_one_side_deltas(self):
        baseline, candidate = self._snapshot_pair()
        diff = diff_snapshots(baseline, candidate)
        assert diff["spans"]["recorded"] == 1
        assert diff["spans"]["dropped"] == 0
        # A counter only the candidate has diffs against zero.
        candidate["counters"]["fresh.counter"] = 7.0
        diff = diff_snapshots(baseline, candidate)
        assert diff["counters"]["fresh.counter"] == 7.0
        assert diff["diff"] is True

    def test_cli_diff_renders_deltas(self, tmp_path, capsys):
        baseline, candidate = self._snapshot_pair()
        base_path = tmp_path / "a.json"
        cand_path = tmp_path / "b.json"
        base_path.write_text(json.dumps(baseline))
        cand_path.write_text(json.dumps(candidate))
        assert obs_main(["--diff", str(base_path), str(cand_path)]) == 0
        out = capsys.readouterr().out
        assert "snapshot diff:" in out
        assert "fleet.ingests" in out and "+2" in out
        assert "(vanished)" in out
        assert "bucket[" in out

    def test_cli_diff_argument_errors(self, tmp_path, capsys):
        snapshot = tmp_path / "a.json"
        snapshot.write_text(json.dumps({"counters": {}}))
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps({"traceEvents": []}))
        # Wrong arity.
        assert obs_main(["--diff", str(snapshot)]) == 2
        # A trace is not a snapshot.
        assert obs_main(["--diff", str(snapshot), str(trace)]) == 2
        err = capsys.readouterr().err
        assert "exactly two snapshot files" in err
        assert "not a metrics snapshot" in err

    def test_cli_warns_on_dropped_spans(self, tmp_path, capsys):
        telemetry = Telemetry(span_capacity=2)
        telemetry.enable()
        for _ in range(5):
            with telemetry.span("watcher.poll"):
                pass
        snapshot_path = str(tmp_path / "metrics.json")
        telemetry.export_snapshot(snapshot_path)
        assert obs_main([snapshot_path]) == 0
        out = capsys.readouterr().out
        assert "WARNING: span ring saturated" in out
        assert "3 span(s) dropped" in out


# ---------------------------------------------------------------------------
# The health time-series
# ---------------------------------------------------------------------------

class TestHealthTimeSeries:
    def test_append_stamps_and_reads_back(self, tmp_path):
        series = HealthTimeSeries(str(tmp_path / "h.jsonl"), fsync=False)
        row = series.append({"gauges": {"watcher.runs_live": 2.0}}, ts=10.0)
        assert row["ts"] == 10.0
        series.append({"gauges": {"watcher.runs_live": 3.0}}, ts=11.0)
        assert len(series) == 2
        assert series.last()["gauges"]["watcher.runs_live"] == 3.0
        assert series.series("gauges", "watcher.runs_live") == [
            (10.0, 2.0), (11.0, 3.0)]
        # A record without the metric is skipped, not an error.
        series.append({"note": "no gauges"}, ts=12.0)
        assert len(series.series("gauges", "watcher.runs_live")) == 2

    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        series = HealthTimeSeries(path, fsync=False)
        series.append({"n": 1}, ts=1.0)
        series.append({"n": 2}, ts=2.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 3.0, "n": 3')  # the crash-torn last line
        rows = series.records()
        assert [row["n"] for row in rows] == [1, 2]
        assert series.last_read_skipped == 1

    def test_retention_keeps_newest_records(self, tmp_path):
        series = HealthTimeSeries(str(tmp_path / "h.jsonl"), max_records=4,
                                  fsync=False)
        for index in range(10):
            series.append({"n": index}, ts=float(index))
        rows = series.records()
        assert len(rows) == 4
        assert [row["n"] for row in rows] == [6, 7, 8, 9]
        # The trim really rewrote the file, not just the view of it.
        reread = HealthTimeSeries(series.path)
        assert [row["n"] for row in reread.records()] == [6, 7, 8, 9]

    def test_existing_file_counts_toward_retention(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        first = HealthTimeSeries(path, fsync=False)
        for index in range(3):
            first.append({"n": index}, ts=float(index))
        # A new handle (watcher restart) keeps the bound across the reopen.
        second = HealthTimeSeries(path, max_records=3, fsync=False)
        second.append({"n": 3}, ts=3.0)
        assert [row["n"] for row in second.records()] == [1, 2, 3]


# ---------------------------------------------------------------------------
# The acceptance path: one instrumented run, four layers, checkable numbers
# ---------------------------------------------------------------------------

class TestInstrumentedRun:
    def test_runner_trace_covers_four_layers_with_consistent_counters(
            self, tmp_path, monkeypatch):
        catalog_writes = 0
        save_catalog = ProfileStore._save_catalog

        def counted_save_catalog(store):
            nonlocal catalog_writes
            catalog_writes += 1
            save_catalog(store)

        monkeypatch.setattr(ProfileStore, "_save_catalog",
                            counted_save_catalog)
        trace_path = str(tmp_path / "run.trace.json")
        store_path = str(tmp_path / "fleet")
        result = run_named_workload(
            "gnn", iterations=2, profiler=PROFILER_DEEPCONTEXT,
            store_path=store_path,
            checkpoint_path=str(tmp_path / "live.cctb"),
            telemetry=True, trace_path=trace_path)
        assert not TELEMETRY.enabled  # the run disables what it enabled

        snapshot = result.telemetry
        assert snapshot is not None
        counters = snapshot["counters"]

        # Cross-checks against independently derived values.
        assert counters["fleet.ingests"] == result.extra["store_runs"] == 1.0
        assert counters["streaming.seals"] == result.extra[
            "profile_checkpoints"]
        # Every catalog write takes the catalog lock (index writes take it
        # too), so acquisitions bound the writes from above.
        assert catalog_writes >= 1
        assert counters["fleet.lock_acquires"] >= catalog_writes
        assert counters["fleet.lock_wait_seconds"] >= 0.0
        assert counters["storage.blocks_decoded"] >= 1.0
        assert counters["storage.crc_verified"] >= 1.0
        assert counters["fleet.index_builds"] == 1.0
        assert counters.get("fleet.index_demoted", 0.0) == 0.0
        assert counters["fleet.index_served"] >= 1.0
        assert "streaming.seal_seconds" in snapshot["histograms"]
        assert (snapshot["histograms"]["streaming.seal_seconds"]["count"]
                == counters["streaming.seals"])

        # The exported trace is Perfetto-shaped and spans >= 4 layers.
        with open(trace_path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        categories = {e["cat"] for e in events}
        assert {"runner", "streaming", "storage", "fleet"} <= categories
        assert any("parent_id" in e["args"] for e in events)
        for event in events:
            assert {"name", "cat", "ph", "ts", "dur", "pid",
                    "tid"} <= set(event)
        assert os.path.exists(trace_path + ".metrics.json")

        # The snapshot written next to the trace equals the attached one
        # metric for metric.
        with open(trace_path + ".metrics.json", "r",
                  encoding="utf-8") as handle:
            exported = json.load(handle)
        assert exported["counters"] == counters

    def test_blocks_decoded_counts_each_decode_exactly_once(self, tmp_path):
        from repro.core.storage import LazyProfileView

        result = run_named_workload("gnn", iterations=1,
                                    profiler=PROFILER_DEEPCONTEXT)
        path = result.database.save(str(tmp_path / "p.cctb"),
                                    format="cct-binary-v1")
        TELEMETRY.enable()
        view = LazyProfileView.attach(path)
        try:
            view.hydrate()
            first = TELEMETRY.counter_value("storage.blocks_decoded")
            assert first >= 1.0
            view.hydrate()  # cached: decoding does not happen again
            assert TELEMETRY.counter_value(
                "storage.blocks_decoded") == first
        finally:
            view.close()
        # A fresh view re-decodes the same blocks: exactly double.
        view = LazyProfileView.attach(path)
        try:
            view.hydrate()
            assert TELEMETRY.counter_value(
                "storage.blocks_decoded") == 2 * first
        finally:
            view.close()

    def test_bare_profiler_session_traces_through_the_registry(
            self, tmp_path):
        from repro.core import DeepContextProfiler, ProfilerConfig
        from repro.framework import EagerEngine, modules, tensor

        trace_path = str(tmp_path / "session.trace.json")
        config = ProfilerConfig(program_name="bare",
                                checkpoint_path=str(tmp_path / "live.cctb"))
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, config)
        TELEMETRY.enable()
        with engine, profiler.profile():
            layer = modules.Linear(8, 4, name="head")
            layer(tensor((4, 8)))
            profiler.mark_iteration()
        TELEMETRY.export_trace(trace_path)
        TELEMETRY.disable()
        with open(trace_path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert "streaming.seal" in names

    def test_loss_counters_are_published_at_stop(self):
        result = run_named_workload("gnn", iterations=1,
                                    profiler=PROFILER_DEEPCONTEXT,
                                    telemetry=True)
        counters = result.telemetry["counters"]
        assert counters["correlation.unresolved"] == 0.0
        assert counters["correlation.pending"] == 0.0


# ---------------------------------------------------------------------------
# Degradation report schema (satellite: stable "counts" rollup)
# ---------------------------------------------------------------------------

class TestDegradationReportSchema:
    def test_counts_rollup_keys_are_stable(self, tmp_path):
        from repro.fleet import ProfileStore

        store_path = str(tmp_path / "fleet")
        for _ in range(2):
            run_named_workload("gnn", iterations=1,
                               profiler=PROFILER_DEEPCONTEXT,
                               store_path=store_path)
        store = ProfileStore(store_path)
        with store.aggregator() as aggregator:
            report = aggregator.degradation_report()
        counts = report["counts"]
        assert set(counts) == {"requested", "healthy", "degraded", "indexed",
                               "fallback", "index_problems",
                               "degraded_by_stage"}
        assert counts["requested"] == 2
        assert counts["healthy"] == 2
        assert counts["degraded"] == 0
        assert counts["indexed"] + counts["fallback"] == counts["healthy"]
        assert counts["index_problems"] == 0
        assert counts["degraded_by_stage"] == {}
        for key, value in counts.items():
            if key != "degraded_by_stage":
                assert isinstance(value, int)
