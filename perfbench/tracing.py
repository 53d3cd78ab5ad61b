"""Spans around the public calls of each layer, recorded from the benchmark's own files.

:func:`instrumented` swaps each traced callable on its class or module for a
wrapper that opens a span, calls the original and closes the span, and puts
every original back on exit.  Nothing inside ``src/`` changes and the
program's own ``repro.obs`` seams stay off.

Spans nest: each has a name, a start, an end, a parent and the id of the
cycle it ran in.  A span's self time is its duration minus the time its child
spans cover.  Per ``(phase, name)`` the tracer keeps calls, total and self
time, so per-layer numbers are measured where the work happens; the first
``max_events`` spans are also kept whole for the Chrome trace written at the
end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.pycontext
from repro.analyzer import PerformanceAnalyzer, RegressionAnalysis
from repro.core import (CallingContextTree, CorrelationRegistry, CpuMetricCollector,
                        DeepContextProfiler, GpuMetricCollector, LazyProfileView,
                        ProfileDatabase, StreamingProfileWriter)
from repro.dlmonitor.api import DLMonitor
from repro.dlmonitor.integration import CallPathBuilder
from repro.fleet import FleetAggregator, FleetWatcher, ProfileStore
from repro.native.unwinder import Unwinder

# Modules whose functions are traced.  Imported by name: some packages
# re-export a function under the same name as its module.
dlmonitor_api = importlib.import_module("repro.dlmonitor.api")
framework_jit = importlib.import_module("repro.framework.jit")
differential = importlib.import_module("repro.fleet.differential")
dashboard = importlib.import_module("repro.gui.dashboard")

#: Wrapper frames carry this file name, which lies inside the ``repro``
#: package, so Python call-path capture drops them like the profiler's own
#: frames.  A wrapper frame counted as user code would add a frame to every
#: captured call path and change the profile the trace is measuring.
HIDDEN_FILENAME = os.path.join(os.path.dirname(repro.pycontext.__file__),
                               "<perfbench span wrapper>")

_now = time.perf_counter_ns


class Tracer:
    """Nested spans and counts, aggregated per ``(phase, name)``."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.phase_name = "cycle"
        self.cycle = 0
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.total_ns: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_ns: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.peaks: Dict[str, float] = {}
        #: ``(duration ns, self ns)`` of every phase span, per phase name.
        self.phase_spans: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
        #: Open spans: ``[name, start ns, child ns, event index]``.
        self._stack: List[list] = []
        #: Whole spans: ``(name, start ns, end ns, parent event index, cycle)``.
        self.events: List[Optional[tuple]] = []
        self.dropped = 0
        self.origin_ns = _now()

    def open(self, name: str) -> None:
        index = -1
        if len(self.events) < self.max_events:
            index = len(self.events)
            self.events.append(None)
        self._stack.append([name, _now(), 0, index])

    def close(self) -> int:
        end = _now()
        name, start, child, index = self._stack.pop()
        duration = end - start
        key = (self.phase_name, name)
        self.calls[key] += 1
        self.total_ns[key] += duration
        self.self_ns[key] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if index >= 0:
            self.events[index] = (name, start, end, parent, self.cycle)
        else:
            self.dropped += 1
        return duration - child

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A span that also names the phase every span inside it is counted under."""
        outer = self.phase_name
        self.phase_name = name
        self.open(f"phase.{name}")
        start = _now()
        try:
            yield
        finally:
            self_ns = self.close()
            self.phase_spans[name].append((_now() - start, self_ns))
            self.phase_name = outer

    @contextlib.contextmanager
    def cycle_span(self) -> Iterator[None]:
        self.cycle += 1
        self.open("cycle")
        try:
            yield
        finally:
            self.close()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase_name, name)] += value

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    # -- reading ----------------------------------------------------------------------

    def span_calls(self, phase: str, *names: str) -> int:
        return sum(self.calls.get((phase, name), 0) for name in names)

    def span_self_ms(self, phase: str, *names: str) -> float:
        return sum(self.self_ns.get((phase, name), 0) for name in names) / 1e6

    def span_total_ms(self, phase: str, *names: str) -> float:
        return sum(self.total_ns.get((phase, name), 0) for name in names) / 1e6

    def counted(self, name: str, phase: Optional[str] = None) -> float:
        """A count recorded in ``phase``, or in any phase."""
        return sum(value for (where, what), value in self.counts.items()
                   if what == name and phase in (None, where))

    def chrome_trace(self, metadata: Dict[str, object]) -> Dict[str, object]:
        """The kept spans as a Chrome ``trace_event`` document (loads in Perfetto)."""
        events = []
        for name, start, end, parent, cycle in filter(None, self.events):
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self.origin_ns) / 1e3, "dur": (end - start) / 1e3,
                "args": {"cycle": cycle, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(metadata, spans_dropped=self.dropped)}

    def write_chrome_trace(self, path: str, metadata: Dict[str, object]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)


# -- wrappers --------------------------------------------------------------------------


def _hidden(wrapper: Callable) -> Callable:
    wrapper.__code__ = wrapper.__code__.replace(co_filename=HIDDEN_FILENAME)
    return wrapper


def _span(tracer: Tracer, name: str, original: Callable) -> Callable:
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close()
    return functools.wraps(original)(_hidden(traced))


def _counter(tracer: Tracer, name: str, original: Callable) -> Callable:
    def counted(*args, **kwargs):
        tracer.count(name)
        return original(*args, **kwargs)
    return functools.wraps(original)(_hidden(counted))


def _insert(tracer: Tracer, name: str, original: Callable) -> Callable:
    """``CallingContextTree.insert``: also counts the nodes each insert created."""
    def traced(tree, *args, **kwargs):
        before = tree.node_count()
        tracer.open(name)
        try:
            return original(tree, *args, **kwargs)
        finally:
            tracer.close()
            tracer.count("cct.insert.new_nodes", tree.node_count() - before)
    return functools.wraps(original)(_hidden(traced))


def _register(tracer: Tracer, name: str, original: Callable) -> Callable:
    """``CorrelationRegistry.register``: also tracks the most correlations pending."""
    def traced(registry, *args, **kwargs):
        tracer.open(name)
        try:
            return original(registry, *args, **kwargs)
        finally:
            tracer.close()
            tracer.peak("correlation.pending_peak", registry.pending_count)
    return functools.wraps(original)(_hidden(traced))


def _charge(tracer: Tracer, name: str, original: Callable) -> Callable:
    """``Unwinder.charge``: counts the unwind steps each incremental unwind took."""
    def counted(unwinder, cursor):
        tracer.count(name, cursor.steps)
        return original(unwinder, cursor)
    return functools.wraps(original)(_hidden(counted))


def _checkpoint(tracer: Tracer, name: str, original: Callable) -> Callable:
    """``StreamingProfileWriter.checkpoint``: also counts the bytes each seal appended."""
    def traced(writer, *args, **kwargs):
        tracer.open(name)
        try:
            stats = original(writer, *args, **kwargs)
        finally:
            tracer.close()
        tracer.count("streaming.bytes_appended", stats.bytes_appended)
        return stats
    return functools.wraps(original)(_hidden(traced))


#: ``(owner, attribute, span or count name, wrapper)`` for every traced call.
TRACED: List[Tuple[object, str, str, Callable]] = [
    (dlmonitor_api, "capture_user_frames", "pycontext.capture", _span),
    (framework_jit, "capture_user_frames", "pycontext.capture", _span),
    (repro.pycontext, "is_user_frame", "pycontext.is_user_frame", _counter),
    (DLMonitor, "callpath_get", "dlmonitor.callpath_get", _span),
    (CallPathBuilder, "build", "dlmonitor.build", _span),
    (CallPathBuilder, "_integrate_native", "native.unwind", _span),
    (Unwinder, "charge", "native.unwind.steps", _charge),
    (CallingContextTree, "insert", "cct.insert", _insert),
    (CallingContextTree, "attribute", "cct.attribute", _span),
    (CallingContextTree, "attribute_many", "cct.attribute", _span),
    (CorrelationRegistry, "register", "correlation.register", _register),
    (CorrelationRegistry, "resolve", "correlation.resolve", _span),
    (CorrelationRegistry, "peek", "correlation.peek", _span),
    (CorrelationRegistry, "release", "correlation.release", _span),
    (GpuMetricCollector, "_on_gpu_event", "gpu_collector.launch", _span),
    (GpuMetricCollector, "_on_activity", "gpu_collector.activity", _span),
    (GpuMetricCollector, "_on_samples", "gpu_collector.samples", _span),
    (CpuMetricCollector, "_on_sample", "cpu_collector.sample", _span),
    (DeepContextProfiler, "stop", "profiler.stop", _span),
    (ProfileDatabase, "save", "storage.save", _span),
    (PerformanceAnalyzer, "analyze", "analyzer.analyze", _span),
    (RegressionAnalysis, "run", "analyzer.regression", _span),
    (StreamingProfileWriter, "checkpoint", "streaming.checkpoint", _checkpoint),
    (StreamingProfileWriter, "close", "streaming.close", _span),
    (ProfileStore, "ingest", "store.ingest", _span),
    (ProfileStore, "prune", "store.prune", _span),
    (LazyProfileView, "__init__", "storage.views_opened", _counter),
    (FleetAggregator, "top_kernels", "aggregate.top_kernels", _span),
    (FleetAggregator, "aggregate_by_name", "aggregate.by_name", _span),
    (FleetAggregator, "total_metric", "aggregate.total_metric", _span),
    (differential, "name_drift", "differential.name_drift", _span),
    (FleetWatcher, "poll_once", "watcher.poll", _span),
    (dashboard, "render_dashboard", "gui.dashboard", _span),
]


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper of :data:`TRACED` for the duration of the block."""
    originals = []
    try:
        for owner, attribute, name, wrap in TRACED:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrap(tracer, name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
