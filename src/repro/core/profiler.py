"""The DeepContext profiler: session orchestration.

``DeepContextProfiler`` ties the pieces together exactly as Figure 2 of the
paper lays them out: it initialises DLMonitor (whose shadow stacks follow the
framework's operators), registers a GPU-domain callback, attaches the
CUPTI/RocTracer activity and sampling consumers, starts CPU interval
sampling, and aggregates every metric online into a single calling context
tree.  Stopping the session flushes outstanding activity buffers and packages
everything into a :class:`ProfileDatabase`.

With ``ProfilerConfig.checkpoint_path`` set the session additionally streams
sealed checkpoints of the live profile to disk (append-then-reseal, see
:mod:`repro.core.streaming`): an initial seal right at ``start()``, automatic
reseals from ``mark_iteration`` every ``checkpoint_interval_s`` wall seconds,
and the closing seal plus compaction at ``stop()`` — so a crash loses at most
the work since the last seal, and an analyzer process can attach to the file
while the run is still going.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Optional

from ..dlmonitor.api import DLMonitor, dlmonitor_init
from ..framework.eager import EagerEngine
from ..framework.jit import JitCompiler
from .cct import ShardedCallingContextTree
from .config import ProfilerConfig
from .correlation import CorrelationRegistry
from .cpu_collector import CpuMetricCollector
from .database import ProfileDatabase, ProfileMetadata
from ..obs import TELEMETRY
from .gpu_collector import GpuMetricCollector
from .streaming import CheckpointStats, StreamingProfileWriter


class DeepContextProfiler:
    """Context-aware, cross-platform, cross-framework profiler (the paper's tool)."""

    def __init__(self, engine: EagerEngine, config: Optional[ProfilerConfig] = None,
                 jit_compiler: Optional[JitCompiler] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ProfilerConfig()
        self.jit_compiler = jit_compiler
        self.monitor: Optional[DLMonitor] = None
        # Every simulated thread collects into its own contention-free CCT
        # shard; queries and the profile database see the lazily merged
        # union through the same tree API.
        self.tree = ShardedCallingContextTree(self.config.program_name)
        self.correlations = CorrelationRegistry()
        self.gpu_collector: Optional[GpuMetricCollector] = None
        self.cpu_collector: Optional[CpuMetricCollector] = None
        self.stream_writer: Optional[StreamingProfileWriter] = None
        self._last_checkpoint_wall = 0.0
        self._database: Optional[ProfileDatabase] = None
        self._running = False
        self._wall_start = 0.0
        self._wall_seconds = 0.0
        self._virtual_start = 0.0
        self.iterations = 0

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> "DeepContextProfiler":
        """Begin profiling: install every interception and collector."""
        if self._running:
            return self
        self._wall_start = time.perf_counter()
        self._virtual_start = self.engine.elapsed_real_time()
        self.monitor = dlmonitor_init(
            self.engine,
            jit_compiler=self.jit_compiler,
            program_name=self.config.program_name,
        )
        if self.config.collect_gpu:
            self.gpu_collector = GpuMetricCollector(self.monitor, self.tree,
                                                    self.correlations, self.config)
            self.gpu_collector.start()
        self.cpu_collector = CpuMetricCollector(self.monitor, self.tree, self.engine, self.config)
        self.cpu_collector.start()
        self._running = True
        if self.config.checkpoint_path:
            self.stream_writer = StreamingProfileWriter(
                ProfileDatabase(self.tree, self._metadata_snapshot()),
                self.config.checkpoint_path,
                compression=self.config.profile_compression or None)
            # Seal 0: the file is a valid (empty-ish) profile from the very
            # start, so live attach and crash recovery work immediately.
            self.stream_writer.checkpoint()
            self._last_checkpoint_wall = time.perf_counter()
        return self

    def stop(self) -> ProfileDatabase:
        """End profiling, flush buffers, and build the profile database."""
        if not self._running:
            if self._database is None:
                raise RuntimeError("profiler was never started")
            return self._database
        if self.gpu_collector is not None:
            self.gpu_collector.stop()
        if self.cpu_collector is not None:
            self.cpu_collector.stop()
        assert self.monitor is not None
        stats = dataclasses.asdict(self.monitor.stats)
        self.monitor.finalize()
        self._wall_seconds = time.perf_counter() - self._wall_start
        self._running = False

        metadata = self._metadata_snapshot()
        if self.stream_writer is not None:
            # The streamed file and the returned database are the same
            # object graph: refresh the provisional metadata, write the
            # closing seal, and compact away superseded checkpoint blocks.
            database = self.stream_writer.database
            database.metadata = metadata
            database.dlmonitor_stats = stats
            self.stream_writer.close(compact=True)
            self._database = database
        else:
            self._database = ProfileDatabase(self.tree, metadata,
                                             dlmonitor_stats=stats)
        # Loss counters, published once after the collectors' final flush
        # and sweep: activity records that found no launch context, and
        # launches whose records never arrived.
        TELEMETRY.count("correlation.unresolved", self.correlations.unresolved)
        TELEMETRY.count("correlation.pending", self.correlations.pending_count)
        return self._database

    @contextlib.contextmanager
    def profile(self):
        """``with profiler.profile(): run_workload()`` convenience wrapper."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def mark_iteration(self) -> None:
        """Record that one training/inference iteration completed.

        Iteration boundaries also drive the automatic streamed checkpoints
        (cheap wall-clock test; a seal only happens when
        ``checkpoint_interval_s`` has elapsed since the last one).
        """
        self.iterations += 1
        self.maybe_checkpoint()

    # -- streamed checkpoints ---------------------------------------------------------

    def maybe_checkpoint(self) -> Optional[CheckpointStats]:
        """Seal a checkpoint if the configured interval has elapsed."""
        if (self.stream_writer is None or not self._running
                or self.config.checkpoint_interval_s <= 0):
            return None
        now = time.perf_counter()
        if now - self._last_checkpoint_wall < self.config.checkpoint_interval_s:
            return None
        return self.checkpoint()

    def checkpoint(self) -> CheckpointStats:
        """Force a streamed checkpoint right now.

        Pending GPU activity buffers are flushed first (the mid-run
        ``activity_flush_all`` the correlation lifecycle already supports),
        so the seal captures kernels whose records were still sitting in a
        partially filled buffer — otherwise a crash would lose everything
        the asynchronous delivery hadn't handed over yet, which on a short
        interval is most of the GPU story.  Metadata is refreshed so live
        attach sees current iteration counts.
        """
        if self.stream_writer is None:
            raise RuntimeError(
                "no streamed checkpointing configured: set "
                "ProfilerConfig.checkpoint_path before start()")
        if (self._running and self.gpu_collector is not None
                and self.monitor is not None):
            self.monitor.tracing_api.activity_flush_all()
        database = self.stream_writer.database
        database.metadata = self._metadata_snapshot()
        if self.monitor is not None:
            database.dlmonitor_stats = dataclasses.asdict(self.monitor.stats)
        stats = self.stream_writer.checkpoint()
        self._last_checkpoint_wall = time.perf_counter()
        return stats

    @property
    def checkpoints_written(self) -> int:
        return self.stream_writer.checkpoints if self.stream_writer else 0

    # -- results --------------------------------------------------------------------------

    @property
    def database(self) -> ProfileDatabase:
        if self._database is None:
            raise RuntimeError("profiling session has not been stopped yet")
        return self._database

    @property
    def running(self) -> bool:
        return self._running

    # -- internals -----------------------------------------------------------------------------

    def _metadata_snapshot(self) -> ProfileMetadata:
        """Current run metadata (streamed seals carry a live snapshot)."""
        wall = (time.perf_counter() - self._wall_start if self._running
                else self._wall_seconds)
        return ProfileMetadata(
            program=self.config.program_name,
            framework=self.engine.framework_name,
            execution_mode=self.engine.execution_mode,
            device=self.engine.device.name,
            vendor=self.engine.device.vendor,
            iterations=self.iterations,
            elapsed_virtual_seconds=self.engine.elapsed_real_time() - self._virtual_start,
            profiler_wall_seconds=wall,
            config=self._config_snapshot(),
        )

    def _config_snapshot(self) -> Dict[str, object]:
        return {
            "collect_python": self.config.collect_python,
            "collect_framework": self.config.collect_framework,
            "collect_native": self.config.collect_native,
            "collect_gpu": self.config.collect_gpu,
            "collect_cpu_time": self.config.collect_cpu_time,
            "cpu_sample_period": self.config.cpu_sample_period,
            "pc_sampling": self.config.pc_sampling,
            "profile_format": self.config.profile_format,
            "profile_compression": self.config.profile_compression,
            "checkpoint_interval_s": self.config.checkpoint_interval_s,
        }
