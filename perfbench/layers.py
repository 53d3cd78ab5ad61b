"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Layers are named after the modules they measure.  Collection-layer numbers
are per profiled step; the layers after collection are per cycle.  The
``moves`` column is the prediction written down before measuring: which
end-to-end metric, on which workload, a change in that layer should show up
in.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from .jobs import Record
from .stats import median
from .tracing import Tracer

E, J, F = "eager-train", "jit-sampled", "fleet-ci"
DENOMINATOR = f"overhead_x (its denominator), step_ms_p50 on {E}, {J}"
CAPTURE = f"overhead_x, step_ms_p50 on {E} (little on {J}, none on {F})"
EAGER = f"overhead_x, step_ms_p50 on {E}"
UNWIND = f"overhead_x, step_ms_p50 on {E} (absent on {J})"
GPU_SIDE = f"step_ms_p50 (and the printed step_ms_p95) on {J}"


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


LAYER_METRICS: List[LayerMetric] = [
    LayerMetric("framework.step_ms", "ms", "lower", DENOMINATOR),
    LayerMetric("framework.ops", "count/step", "lower", DENOMINATOR),
    LayerMetric("framework.kernel_launches", "count/step", "lower", DENOMINATOR),
    LayerMetric("pycontext.capture.calls", "count/step", "lower", CAPTURE),
    LayerMetric("pycontext.capture.self_ms", "ms/step", "lower", CAPTURE),
    LayerMetric("pycontext.is_user_frame.calls", "count/step", "lower", CAPTURE),
    LayerMetric("dlmonitor.callpath_get.calls", "count/step", "lower", EAGER),
    LayerMetric("dlmonitor.callpath_get.self_ms", "ms/step", "lower", EAGER),
    LayerMetric("dlmonitor.build.calls", "count/step", "lower", EAGER),
    LayerMetric("dlmonitor.build.self_ms", "ms/step", "lower", EAGER),
    LayerMetric("dlmonitor.cache.hit_rate", "ratio", "higher", EAGER),
    LayerMetric("native.unwind.calls", "count/step", "lower", UNWIND),
    LayerMetric("native.unwind.steps", "count/step", "lower", UNWIND),
    LayerMetric("native.unwind.self_ms", "ms/step", "lower", UNWIND),
    LayerMetric("cct.insert.calls", "count/step", "lower", f"step_ms_p50 on {E}"),
    LayerMetric("cct.insert.self_ms", "ms/step", "lower", f"step_ms_p50 on {E}"),
    LayerMetric("cct.insert.new_node_frac", "ratio", "lower", f"step_ms_p50 on {J}"),
    LayerMetric("cct.attribute.calls", "count/step", "lower", f"step_ms_p50 on {J}"),
    LayerMetric("cct.attribute.self_ms", "ms/step", "lower", f"step_ms_p50 on {J}"),
    LayerMetric("cct.nodes", "count/cycle", "lower", f"profile_bytes, mem_overhead_mb on {E}, {J}"),
    LayerMetric("correlation.register.calls", "count/step", "lower", GPU_SIDE),
    LayerMetric("correlation.resolve.calls", "count/step", "lower", GPU_SIDE),
    LayerMetric("correlation.self_ms", "ms/step", "lower", GPU_SIDE),
    LayerMetric("correlation.unresolved", "count/cycle", "lower", GPU_SIDE),
    LayerMetric("correlation.pending_peak", "count", "lower", GPU_SIDE),
    LayerMetric("gpu_collector.launch.self_ms", "ms/step", "lower", GPU_SIDE),
    LayerMetric("gpu_collector.activity.self_ms", "ms/step", "lower", GPU_SIDE),
    LayerMetric("gpu_collector.samples.self_ms", "ms/step", "lower", GPU_SIDE),
    LayerMetric("cpu_collector.samples", "count/step", "lower", f"step_ms_p50 on {E}"),
    LayerMetric("cpu_collector.self_ms", "ms/step", "lower", f"step_ms_p50 on {E}"),
    LayerMetric("profiler.stop_ms", "ms/cycle", "lower", f"finish_ms on {E}, {J}"),
    LayerMetric("storage.save_ms", "ms/cycle", "lower", f"finish_ms on {E}, {J}"),
    LayerMetric("analyzer.analyze_ms", "ms/cycle", "lower", f"finish_ms on {E}, {J}"),
    LayerMetric("streaming.checkpoint.calls", "count/cycle", "lower",
                f"ingest_ms_p50, cycle_ms_p50 on {F}"),
    LayerMetric("streaming.checkpoint.self_ms", "ms/cycle", "lower",
                f"ingest_ms_p50, cycle_ms_p50 on {F}"),
    LayerMetric("streaming.close_ms", "ms/cycle", "lower", f"ingest_ms_p50, cycle_ms_p50 on {F}"),
    LayerMetric("streaming.bytes_appended", "bytes/cycle", "lower",
                f"ingest_ms_p50, cycle_ms_p50 on {F}"),
    LayerMetric("store.ingest.self_ms", "ms/cycle", "lower", f"ingest_ms_p50 on {F}"),
    LayerMetric("store.catalog_lock_wait_ms", "ms/cycle", "lower", f"ingest_ms_p50 on {F}"),
    LayerMetric("store.prune.self_ms", "ms/cycle", "lower", f"ingest_ms_p50 on {F}"),
    LayerMetric("store.runs", "count", "lower", f"ingest_ms_p50, query_ms_p50 on {F}"),
    LayerMetric("index.served_frac", "ratio", "higher", f"query_ms_p50 on {F}"),
    LayerMetric("aggregate.demoted_runs", "count/cycle", "lower",
                f"query_ms_p50 on {F}"),
    LayerMetric("storage.views_opened", "count/cycle", "lower",
                f"query_ms_p50 on {F}"),
    LayerMetric("aggregate.top_kernels.self_ms", "ms/cycle", "lower",
                f"query_ms_p50 on {F}"),
    LayerMetric("aggregate.by_name.self_ms", "ms/cycle", "lower",
                f"query_ms_p50 on {F}"),
    LayerMetric("differential.name_drift.self_ms", "ms/cycle", "lower",
                f"query_ms_p50 on {F}"),
    LayerMetric("analyzer.regression.self_ms", "ms/cycle", "lower", f"cycle_ms_p50 on {F}"),
    LayerMetric("watcher.poll.self_ms", "ms/cycle", "lower", f"cycle_ms_p50 on {F}"),
    LayerMetric("watcher.poll.idle_ms", "ms/cycle", "lower", f"cycle_ms_p50 on {F}"),
    LayerMetric("gui.dashboard_ms", "ms/cycle", "lower", f"cycle_ms_p50 on {F}"),
    LayerMetric("untraced_ms", "ms/step", "lower", "trace bookkeeping: step time no span covers"),
    LayerMetric("trace_overhead_x", "ratio", "lower", "trace bookkeeping: traced / untraced step"),
]


def derive(tracer: Tracer, record: Record, untraced_step_s: float) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from a traced run.

    ``record`` holds the traced cycles only; ``untraced_step_s`` is the
    median profiled step of untraced cycles of the same run.
    """
    t = tracer
    steps = max(1, len(t.phase_spans["step"]))
    cycles = max(1, t.cycle)

    def per_step(value: float) -> float:
        return value / steps

    def per_cycle(value: float) -> float:
        return value / cycles

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    step_ms = median(record.unprofiled_s) * 1e3
    traced_step_ms = median(duration / 1e6 for duration, _ in t.phase_spans["step"])
    step_self_ms = median(self_ns / 1e6 for _, self_ns in t.phase_spans["step"])
    correlation = ("correlation.register", "correlation.resolve", "correlation.peek",
                   "correlation.release")
    return {
        "framework.step_ms": step_ms,
        "framework.ops": per_step(t.counted("framework.ops")),
        "framework.kernel_launches": per_step(t.counted("framework.kernel_launches")),
        "pycontext.capture.calls": per_step(t.span_calls("step", "pycontext.capture")),
        "pycontext.capture.self_ms": per_step(t.span_self_ms("step", "pycontext.capture")),
        "pycontext.is_user_frame.calls": per_step(t.counted("pycontext.is_user_frame", "step")),
        "dlmonitor.callpath_get.calls": per_step(t.span_calls("step", "dlmonitor.callpath_get")),
        "dlmonitor.callpath_get.self_ms": per_step(
            t.span_self_ms("step", "dlmonitor.callpath_get")),
        "dlmonitor.build.calls": per_step(t.span_calls("step", "dlmonitor.build")),
        "dlmonitor.build.self_ms": per_step(t.span_self_ms("step", "dlmonitor.build")),
        "dlmonitor.cache.hit_rate": ratio(t.counted("dlmonitor.cache.hits"),
                                          t.counted("dlmonitor.cache.lookups")),
        "native.unwind.calls": per_step(t.span_calls("step", "native.unwind")),
        "native.unwind.steps": per_step(t.counted("native.unwind.steps", "step")),
        "native.unwind.self_ms": per_step(t.span_self_ms("step", "native.unwind")),
        "cct.insert.calls": per_step(t.span_calls("step", "cct.insert")),
        "cct.insert.self_ms": per_step(t.span_self_ms("step", "cct.insert")),
        "cct.insert.new_node_frac": ratio(t.counted("cct.insert.new_nodes", "step"),
                                          t.span_calls("step", "cct.insert")),
        "cct.attribute.calls": per_step(t.span_calls("step", "cct.attribute")),
        "cct.attribute.self_ms": per_step(t.span_self_ms("step", "cct.attribute")),
        "cct.nodes": per_cycle(t.counted("cct.nodes")),
        "correlation.register.calls": per_step(t.span_calls("step", "correlation.register")),
        "correlation.resolve.calls": per_step(t.span_calls("step", "correlation.resolve")),
        "correlation.self_ms": per_step(t.span_self_ms("step", *correlation)),
        "correlation.unresolved": per_cycle(t.counted("correlation.unresolved")),
        "correlation.pending_peak": t.peaks.get("correlation.pending_peak", 0.0),
        "gpu_collector.launch.self_ms": per_step(t.span_self_ms("step", "gpu_collector.launch")),
        "gpu_collector.activity.self_ms": per_step(
            t.span_self_ms("step", "gpu_collector.activity")),
        "gpu_collector.samples.self_ms": per_step(
            t.span_self_ms("step", "gpu_collector.samples")),
        "cpu_collector.samples": per_step(t.span_calls("step", "cpu_collector.sample")),
        "cpu_collector.self_ms": per_step(t.span_self_ms("step", "cpu_collector.sample")),
        "profiler.stop_ms": per_cycle(t.span_total_ms("finish", "profiler.stop")),
        "storage.save_ms": per_cycle(t.span_total_ms("finish", "storage.save")),
        "analyzer.analyze_ms": per_cycle(t.span_total_ms("finish", "analyzer.analyze")),
        "streaming.checkpoint.calls": per_cycle(sum(
            t.span_calls(phase, "streaming.checkpoint") for phase in ("cycle", "step", "finish"))),
        "streaming.checkpoint.self_ms": per_cycle(sum(
            t.span_self_ms(phase, "streaming.checkpoint") for phase in ("cycle", "step", "finish"))),
        "streaming.close_ms": per_cycle(t.span_total_ms("finish", "streaming.close")),
        "streaming.bytes_appended": per_cycle(t.counted("streaming.bytes_appended")),
        "store.ingest.self_ms": per_cycle(t.span_self_ms("ingest", "store.ingest")),
        "store.catalog_lock_wait_ms": per_cycle(t.counted("store.catalog_lock_wait_ms")),
        "store.prune.self_ms": per_cycle(t.span_self_ms("ingest", "store.prune")),
        "store.runs": per_cycle(t.counted("store.runs")),
        "index.served_frac": ratio(t.counted("index.served_runs"),
                                   t.counted("index.queried_runs")),
        "aggregate.demoted_runs": per_cycle(t.counted("aggregate.demoted_runs")),
        "storage.views_opened": per_cycle(t.counted("storage.views_opened", "query")),
        "aggregate.top_kernels.self_ms": per_cycle(t.span_self_ms("query", "aggregate.top_kernels")),
        "aggregate.by_name.self_ms": per_cycle(t.span_self_ms("query", "aggregate.by_name")),
        "differential.name_drift.self_ms": per_cycle(
            t.span_self_ms("query", "differential.name_drift")),
        "analyzer.regression.self_ms": per_cycle(t.span_self_ms("finish", "analyzer.regression")),
        "watcher.poll.self_ms": per_cycle(t.span_self_ms("ingest", "watcher.poll")),
        "watcher.poll.idle_ms": per_cycle(t.span_total_ms("idle", "watcher.poll")),
        "gui.dashboard_ms": per_cycle(t.span_total_ms("dashboard", "gui.dashboard")),
        "untraced_ms": step_self_ms - step_ms,
        "trace_overhead_x": ratio(traced_step_ms, untraced_step_s * 1e3),
    }
