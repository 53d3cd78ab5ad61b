"""CPU metric collection.

DeepContext registers an interval timer for ``CPU_TIME`` / ``REAL_TIME``; at
every sample it asks DLMonitor for the current call path and attributes the
interval to it (paper §4.2, "CPU Metrics").  Hardware-counter metrics from
perf events / PAPI are derived from the same sampling stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cpu.perf_events import PerfEventGroup
from ..cpu.sampler import CPU_TIME, REAL_TIME, IntervalSampler, Sample
from ..dlmonitor.api import DLMonitor
from ..framework.eager import EagerEngine
from ..framework.threads import ThreadContext
from .cct import ShardedCallingContextTree
from .config import ProfilerConfig
from . import metrics as M


class CpuMetricCollector:
    """Samples CPU_TIME / REAL_TIME on every thread and attributes the intervals.

    Each sample is attributed into the private shard of the thread whose
    timer fired, so samplers on different threads never touch shared tree
    state.
    """

    def __init__(self, monitor: DLMonitor, tree: ShardedCallingContextTree,
                 engine: EagerEngine, config: ProfilerConfig) -> None:
        self.monitor = monitor
        self.tree = tree
        self.engine = engine
        self.config = config
        self._sources = config.callpath_sources()
        self._samplers: List[IntervalSampler] = []
        self._running = False
        self.samples_attributed = 0
        self.perf_group: Optional[PerfEventGroup] = None
        self._perf_last: Dict[str, float] = {}

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        if self._running or not self.config.collect_cpu_time:
            self._running = True
            return
        for thread in self.engine.threads:
            self._install_for_thread(thread)
        self.engine.threads.on_thread_created(self._on_thread_created)
        if self.config.collect_real_time:
            sampler = IntervalSampler(self.engine.machine.real_time, REAL_TIME,
                                      self.config.cpu_sample_period)
            sampler.install(lambda sample: self._on_sample(sample, self.engine.threads.main))
            self._samplers.append(sampler)
        if self.config.perf_events:
            self.perf_group = PerfEventGroup()
            for event_name in self.config.perf_events:
                self.perf_group.open(event_name)
            self.perf_group.enable()
        self._running = True

    def stop(self) -> None:
        for sampler in self._samplers:
            sampler.uninstall()
        self._samplers.clear()
        if self.perf_group is not None:
            self.perf_group.disable()
        self._running = False

    # -- internals --------------------------------------------------------------------

    def _install_for_thread(self, thread: ThreadContext) -> None:
        sampler = IntervalSampler(thread.cpu_clock, CPU_TIME, self.config.cpu_sample_period)
        sampler.install(lambda sample, t=thread: self._on_sample(sample, t))
        self._samplers.append(sampler)

    def _on_thread_created(self, thread: ThreadContext) -> None:
        if self._running and self.config.collect_cpu_time:
            self._install_for_thread(thread)

    def _on_sample(self, sample: Sample, thread: ThreadContext) -> None:
        """Timer fired: attribute the elapsed interval to the current call path.

        The timer metric and any perf-event deltas of this sample are folded
        into the leaf with one ``attribute_many`` call.
        """
        callpath = self.monitor.callpath_get(sources=self._sources, thread=thread)
        tree = self.tree.shard_for(thread)
        node = tree.insert(callpath)
        metric = M.METRIC_CPU_TIME if sample.event == CPU_TIME else M.METRIC_REAL_TIME
        metrics = {metric: sample.interval}
        if self.perf_group is not None and sample.event == CPU_TIME:
            self.perf_group.accumulate(sample.interval)
            for name, value in self.perf_group.read_all().items():
                delta = value - self._perf_last.get(name, 0.0)
                self._perf_last[name] = value
                if delta:
                    metrics[f"perf::{name}"] = delta
        tree.attribute_many(node, metrics)
        self.samples_attributed += 1

    @property
    def total_samples(self) -> int:
        return sum(sampler.samples_fired for sampler in self._samplers)
