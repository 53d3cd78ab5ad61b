"""The traced run: span bookkeeping, invisible wrappers, and a traced run end to end."""

import json
import os

from repro.core import CallingContextTree
from repro.pycontext import capture_user_frames

from perfbench import bench, tracing
from perfbench.jobs import WORKLOADS
from perfbench.layers import LAYER_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_excludes_child_spans_and_parents_are_recorded():
    tracer = tracing.Tracer()
    with tracer.cycle_span():
        with tracer.phase("step"):
            tracer.open("outer")
            tracer.open("inner")
            tracer.close()
            tracer.close()
    outer, inner = ("step", "outer"), ("step", "inner")
    assert tracer.self_ns[outer] == tracer.total_ns[outer] - tracer.total_ns[inner]
    assert tracer.self_ns[inner] == tracer.total_ns[inner]
    names = [event[0] for event in tracer.events]
    assert names == ["cycle", "phase.step", "outer", "inner"]
    parents = [event[3] for event in tracer.events]
    assert parents == [-1, 0, 1, 2]
    assert {event[4] for event in tracer.events} == {1}
    assert len(tracer.phase_spans["step"]) == 1


def test_events_past_the_cap_are_dropped_but_still_aggregated():
    tracer = tracing.Tracer(max_events=2)
    for _ in range(5):
        tracer.open("span")
        tracer.close()
    assert len(tracer.events) == 2
    assert tracer.dropped == 3
    assert tracer.calls[("cycle", "span")] == 5
    trace = tracer.chrome_trace({"seed": 1})
    assert len(trace["traceEvents"]) == 2
    assert trace["otherData"] == {"seed": 1, "spans_dropped": 3}


def test_instrumented_wraps_and_then_restores_every_original():
    originals = [owner.__dict__[attribute] for owner, attribute, _, _ in tracing.TRACED]
    with tracing.instrumented(tracing.Tracer()):
        assert CallingContextTree.__dict__["insert"] is not originals[
            [attribute for _, attribute, _, _ in tracing.TRACED].index("insert")]
    assert [owner.__dict__[attribute] for owner, attribute, _, _ in tracing.TRACED] == originals


def _user_frames():
    return capture_user_frames(skip=1)


def _call(fn):
    return fn()


def test_wrapper_frames_are_invisible_to_python_call_path_capture():
    tracer = tracing.Tracer()
    wrapped = tracing._span(tracer, "probe", _user_frames)
    direct = [function for _file, _line, function in _call(_user_frames)]
    through_wrapper = [function for _file, _line, function in _call(wrapped)]
    assert direct == through_wrapper
    assert tracer.calls[("cycle", "probe")] == 1


def test_traced_run_reports_every_layer_metric_and_saves_the_same_profile(tmp_path):
    trace_path = str(tmp_path / "trace.json")
    result = bench.run_traced("fleet-ci", seed=3, seconds=0.01, workdir=str(tmp_path / "work"),
                              trace_path=trace_path, provenance={"seed": 3})
    assert result.checks.failed == 0, result.checks.messages
    # Includes the byte-for-byte comparison of the traced and untraced profile.
    assert result.checks.attempted > 10
    assert list(result.metrics) == [metric.name for metric in LAYER_METRICS]
    metrics = {name: value for name, (value, _unit) in result.metrics.items()}
    assert metrics["store.ingest.self_ms"] > 0
    assert metrics["index.served_frac"] == 1.0
    assert metrics["store.runs"] == WORKLOADS["fleet-ci"].runs_per_model * 3
    assert metrics["correlation.unresolved"] == 0
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"cycle", "phase.step", "dlmonitor.callpath_get", "watcher.poll"} <= names


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert spec["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS]
