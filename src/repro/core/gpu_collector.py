"""GPU metric collection.

The collector registers a GPU-domain callback through DLMonitor: at every
kernel launch / memory copy it emits the correlation ID, retrieves the unified
call path, inserts it into the CCT and remembers the association.  Device-side
measurements (kernel durations, launch configurations, instruction samples)
arrive later through asynchronous activity buffers and are linked back to
their nodes through the correlation registry (paper §4.2, "GPU Metrics").

The collector attributes into the *launching* thread's private shard of the
:class:`~repro.core.cct.ShardedCallingContextTree`: the call path is
inserted into that shard at the launch callback, and because every CCT node
carries a back-reference to its owning tree, asynchronous deliveries
(activity records, instruction samples) are folded into the correct shard
without any lookup — contention-free multi-thread collection.

Correlation lifecycle: an activity record and the instruction-sample batch of
the same correlation ID arrive independently and in either order (the
activity buffer can flush mid-launch, before samples are delivered).  The
collector therefore never frees a correlation on first use: each consumer
marks its share attributed and releases the entry only when the counterpart
delivery has also been seen (or will never come — non-kernel records get no
samples), and ``stop()`` sweeps the remaining tombstones after the final
flush.  This keeps the registry bounded during the run without silently
dropping late samples as "unresolved".
"""

from __future__ import annotations

from typing import List, Optional

from ..dlmonitor.api import DLMonitor
from ..dlmonitor.callpath import gpu_instruction_frame
from ..dlmonitor.domains import DLMONITOR_GPU, PHASE_ENTER, GpuEvent
from ..gpu.activity import ActivityKind, ActivityRecord
from ..gpu.sampling import InstructionSample
from .cct import CallingContextTree, ShardedCallingContextTree
from .config import ProfilerConfig
from .correlation import CorrelationRegistry
from . import metrics as M


class GpuMetricCollector:
    """Collects coarse and fine-grained GPU metrics into the CCT."""

    def __init__(self, monitor: DLMonitor, tree: ShardedCallingContextTree,
                 correlations: CorrelationRegistry, config: ProfilerConfig) -> None:
        self.monitor = monitor
        self.tree = tree
        self.correlations = correlations
        self.config = config
        self._sources = config.callpath_sources()
        self._threads = monitor.engine.threads
        #: Kernel correlations whose activity arrived mid-launch (before the
        #: exit-time sample delivery); drained at the next GPU API callback.
        self._awaiting_samples: set = set()
        self._saved_buffer_size: Optional[int] = None
        self._running = False
        self.launches_seen = 0
        self.activities_attributed = 0
        self.samples_attributed = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        buffer_size = int(self.config.activity_buffer_size)
        if buffer_size <= 0:
            raise ValueError("activity_buffer_size must be positive")
        activity = self.monitor.tracing_api.runtime.activity
        self._saved_buffer_size = activity.buffer_size
        activity.buffer_size = buffer_size
        self.monitor.callback_register(DLMONITOR_GPU, self._on_gpu_event)
        self.monitor.tracing_api.activity_register_callbacks(self._on_activity)
        if self.config.pc_sampling:
            self.monitor.tracing_api.enable_pc_sampling(
                self._on_samples, sample_period_us=self.config.pc_sample_period_us)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        self.monitor.tracing_api.activity_flush_all()
        self.monitor.callback_unregister(DLMONITOR_GPU, self._on_gpu_event)
        if self.config.pc_sampling:
            self.monitor.tracing_api.disable_pc_sampling()
        # Final flush done: free every correlation that was attributed but
        # kept alive for a counterpart delivery that can no longer arrive.
        self._awaiting_samples.clear()
        self.correlations.sweep_attributed()
        if self._saved_buffer_size is not None:
            self.monitor.tracing_api.runtime.activity.buffer_size = self._saved_buffer_size
            self._saved_buffer_size = None
        self._running = False

    # -- shard routing ----------------------------------------------------------

    def _shard_for_tid(self, tid: int) -> CallingContextTree:
        """The launching thread's shard."""
        thread = self._threads.find(tid)
        if thread is not None:
            return self.tree.shard_for(thread)
        return self.tree.shard_for_tid(tid)

    # -- callbacks ------------------------------------------------------------------

    def _drain_awaiting_samples(self) -> None:
        """Free tombstones whose sample delivery has provably completed.

        Samples are delivered synchronously right after a launch's exit
        callback, so by the time the *next* GPU API callback fires, an entry
        that has exited without its sample flag set received an empty batch
        and will never be completed by the sample path.
        """
        for correlation_id in list(self._awaiting_samples):
            pending = self.correlations.peek(correlation_id)
            if pending is None or pending.samples_attributed or pending.launch_exited:
                if pending is not None:
                    self.correlations.release(correlation_id)
                self._awaiting_samples.discard(correlation_id)

    def _on_gpu_event(self, event: GpuEvent) -> None:
        """Kernel-launch / memcpy / malloc callback on the launching CPU thread."""
        if event.phase != PHASE_ENTER:
            pending = self.correlations.peek(event.correlation_id)
            if pending is not None:
                pending.launch_exited = True
            return
        self._drain_awaiting_samples()
        self.launches_seen += 1
        callpath = self.monitor.callpath_get(sources=self._sources)
        shard = self._shard_for_tid(event.thread_tid)
        node = shard.insert(callpath)
        is_backward = False
        stack = self.monitor.shadow_stacks.for_thread(event.thread_tid)
        top = stack.top()
        if top is not None:
            is_backward = top.is_backward
        self.correlations.register(
            event.correlation_id, node, kernel_name=event.kernel_name,
            api_name=event.api_name, is_backward=is_backward,
        )
        if event.api_name.endswith("Malloc") and event.bytes:
            shard.attribute(node, M.METRIC_ALLOCATED_BYTES, event.bytes)

    def _on_activity(self, records: List[ActivityRecord]) -> None:
        """Asynchronous activity-buffer delivery: attribute device-side metrics.

        All metrics of one record are folded with a single ``attribute_many``
        call — one generation bump per record instead of one tree walk per
        metric as in the eager-propagation model.  Attribution targets the
        owning tree of the launch-site node, i.e. the launching thread's
        shard when collection is sharded.
        """
        for record in records:
            pending = self.correlations.resolve(record.correlation_id)
            if pending is None:
                continue
            node = pending.node
            tree = node.tree if node.tree is not None else self.tree
            expects_samples = False
            if record.kind == ActivityKind.KERNEL:
                expects_samples = self.config.pc_sampling
                metrics = {M.METRIC_GPU_TIME: record.duration, M.METRIC_KERNEL_COUNT: 1.0}
                if self.config.gpu_launch_metrics:
                    metrics[M.METRIC_BLOCKS] = record.grid_size
                    metrics[M.METRIC_THREADS_PER_BLOCK] = record.block_size
                    metrics[M.METRIC_REGISTERS] = record.registers_per_thread
                    metrics[M.METRIC_SHARED_MEMORY] = record.shared_memory_bytes
                tree.attribute_many(node, metrics)
            elif record.kind == ActivityKind.MEMCPY:
                tree.attribute_many(node, {M.METRIC_GPU_TIME: record.duration,
                                           M.METRIC_MEMCPY_BYTES: record.bytes})
            elif record.kind == ActivityKind.MALLOC:
                tree.attribute(node, M.METRIC_ALLOCATED_BYTES, record.bytes)
            self.activities_attributed += 1
            pending.activity_attributed = True
            if (expects_samples and not pending.samples_attributed
                    and not pending.launch_exited):
                # Mid-launch buffer flush: the exit-time sample delivery for
                # this correlation has not happened yet, so keep the entry
                # resolvable; the next GPU API callback drains it if the
                # sample batch turns out empty.
                self._awaiting_samples.add(record.correlation_id)
            else:
                # Samples already attributed, delivered empty (the launch has
                # exited), or never coming — nothing left to wait for.
                self.correlations.release(record.correlation_id)

    def _on_samples(self, samples: List[InstructionSample]) -> None:
        """Fine-grained instruction samples: extend the call path per instruction.

        A batch contains many samples of one correlation, so completed
        correlations are released only after the whole batch is attributed.
        """
        completed = set()
        for sample in samples:
            pending = self.correlations.resolve(sample.correlation_id)
            node = pending.node if pending is not None else None
            if node is None:
                continue
            instruction_node = node.child_for(
                gpu_instruction_frame(sample.kernel_name, sample.pc_offset, sample.stall_reason))
            tree = node.tree if node.tree is not None else self.tree
            metrics = {M.METRIC_INSTRUCTION_SAMPLES: sample.samples}
            if sample.is_stalled:
                metrics[M.METRIC_STALL_SAMPLES] = sample.samples
            tree.attribute_many(instruction_node, metrics)
            self.samples_attributed += 1
            pending.samples_attributed = True
            if pending.activity_attributed:
                completed.add(sample.correlation_id)
        for correlation_id in completed:
            self.correlations.release(correlation_id)
            self._awaiting_samples.discard(correlation_id)
