"""The three benchmark workloads and the closed-loop cycle they share.

One *cycle* is one profiled job, run the way a user runs it, followed by
everything a user does with its profile:

1. collection: a fresh :class:`DeepContextProfiler` on the profiled engine,
   each profiled step paired with a step of the same model on a twin engine
   that is never profiled (the ``overhead_x`` denominator);
2. finish: ``stop()``, persisting the profile and ``PerformanceAnalyzer``;
3. ingest into a :class:`ProfileStore` kept at a constant size by retention;
4. the fixed fleet query mix over that store.

Beside the steps, a calibration loop that shares no code with the program
is timed (:mod:`.calibration`); the cycle's latencies are reported relative
to it, so a slower machine does not read as a slower program.

The workloads differ in what dominates that cycle.  ``eager-train`` and
``jit-sampled`` run longer jobs of one model, so collection dominates, save
the profile in one piece and ingest it directly.  ``fleet-ci`` runs short jobs
over a rotation of small models, streams checkpoints into a watched
directory, lets ``FleetWatcher.poll_once`` ingest them and diffs each run
against the newest same-config run of its model with ``RegressionAnalysis``.

Everything is single-threaded and closed-loop: a cycle starts when the
previous one has finished.  The same code runs untraced and traced; only the
tracer object differs, so Python call paths captured through these frames are
the same in both.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analyzer import PerformanceAnalyzer, RegressionAnalysis, Severity
from repro.core import (DeepContextProfiler, ProfileDatabase, ProfileMetadata,
                        ProfilerConfig, StreamingProfileWriter)
from repro.core import metrics as M
from repro.dlmonitor.callpath import FrameKind
from repro.fleet import FleetWatcher, ProfileStore, RetentionPolicy
from repro.fleet import differential
from repro.fleet.store import catalog_lock_stats, config_hash
from repro.framework.eager import EagerEngine
from repro.framework.jit import JitCompiler, jit
from repro.gui import dashboard
from repro.workloads import create_workload

from . import checks as C
from .calibration import at_reference, calibration_pass
from .stats import PROFILED, UNPROFILED, median, step_ratios, stratified_median

BINARY = ProfileDatabase.FORMAT_BINARY
DEVICE = "a100"
BASE, SCALED = "base", "scaled"
#: Runs in the store, pre-populated at set-up and kept by retention: each
#: model keeps its share.  The size of the repository's fleet query gates.
STORE_RUNS = 64
#: Calibration passes timed after the last step of a cycle, besides the one
#: timed beside each unprofiled step.
END_CALIBRATION_PASSES = 3
#: Steps of each side of the memory pass.
MEMORY_STEPS = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """How one benchmark workload is shaped."""

    name: str
    why: str
    mode: str
    #: ``model → options of its scaled-up config`` (None: never scaled).
    models: Tuple[Tuple[str, Optional[Dict[str, object]]], ...]
    native: bool
    pc_sampling: bool
    #: Profiled steps per job, each paired with an unprofiled step.
    pairs: int
    fleet: bool = False

    @property
    def runs_per_model(self) -> int:
        return STORE_RUNS // len(self.models)


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec(
            name="eager-train",
            why="eager Transformer-Big training under DeepContext Native with CPU "
                "sampling: per-event collection (capture, call-path build, unwind, "
                "CCT insert) dominates",
            mode="eager", models=(("transformer_big", None),), native=True,
            pc_sampling=False, pairs=8),
        WorkloadSpec(
            name="jit-sampled",
            why="JIT ResNet training with PC sampling: few framework callbacks, "
                "GPU-side activity, correlation and instruction leaves dominate",
            mode="jit", models=(("resnet", None),), native=False,
            pc_sampling=True, pairs=8),
        WorkloadSpec(
            name="fleet-ci",
            why="short CI jobs over rotating models: streaming, watcher ingest, "
                "regression diffs and index-served fleet queries dominate",
            mode="eager",
            models=(("dlrm", {"batch_size": 1024}),
                    ("gnn", {"num_nodes": 2048, "num_edges": 8192}),
                    ("vit", {"batch_size": 4})),
            native=False, pc_sampling=False, pairs=4, fleet=True),
    )
}


class Runner:
    """One model on one simulated engine, stepped eagerly or through ``jit``."""

    def __init__(self, model: str, mode: str, options: Dict[str, object]) -> None:
        self.model = model
        self.engine = EagerEngine(DEVICE)
        self.compiler = JitCompiler(self.engine) if mode == "jit" else None
        self.workload = create_workload(model, small=True, **options)
        with self.engine:
            self.workload.build(self.engine)
        self.compiled = None
        self.iteration = 0

    def begin_job(self) -> None:
        """JIT jobs compile afresh, so a profiler started first sees the compilation.

        The first call traces and compiles; it is run here, untimed.
        """
        if self.compiler is None:
            return
        self.compiled = jit(self.workload.step_fn(self.engine), engine=self.engine,
                            with_grad=self.workload.training, compiler=self.compiler)
        self.step()

    def step(self) -> None:
        with self.engine:
            if self.compiled is not None:
                self.compiled(*self.workload.make_batch(self.engine, self.iteration))
            else:
                self.workload.run_iteration(self.engine, self.iteration)
            self.engine.synchronize()
        self.iteration += 1


@dataclass(frozen=True)
class Pair:
    """One model config, run on an engine that is profiled and a twin that never is.

    Every cycle builds both engines afresh, as a CI job starts a fresh
    process: the simulated clocks then start at zero, so same-config jobs
    produce identical kernel timings and identical profiles.
    """

    model: str
    config: str
    options: Tuple[Tuple[str, object], ...]

    def runners(self, mode: str) -> Tuple[Runner, Runner]:
        options = dict(self.options)
        return Runner(self.model, mode, options), Runner(self.model, mode, options)


@dataclass
class Record:
    """Everything one run measured, one entry per finished cycle or profiled step."""

    #: The model each cycle ran.
    models: List[str] = field(default_factory=list)
    #: Per cycle, the median calibration pass timed during that cycle.
    pass_s: List[float] = field(default_factory=list)
    #: Per profiled step: the model, and the step over its cycle's median
    #: unprofiled step.
    step_models: List[str] = field(default_factory=list)
    step_ratios: List[float] = field(default_factory=list)
    #: Step wall times, as measured.
    profiled_s: List[float] = field(default_factory=list)
    unprofiled_s: List[float] = field(default_factory=list)
    #: Each profiled step at the reference speed.
    profiled_ref_s: List[float] = field(default_factory=list)
    finish_s: List[float] = field(default_factory=list)
    ingest_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    cycle_s: List[float] = field(default_factory=list)
    profile_bytes: List[int] = field(default_factory=list)

    def overhead_x(self) -> float:
        return stratified_median(self.step_ratios, self.step_models)

    def step_ms_p50(self) -> float:
        """Median profiled step at the reference speed, per model, averaged over models."""
        return stratified_median([value * 1e3 for value in self.profiled_ref_s],
                                 self.step_models)

    def at_reference_ms(self, seconds: List[float]) -> float:
        """A per-cycle latency at the reference speed, in ms, summarised per
        model (see :func:`stratified_median`)."""
        return stratified_median([at_reference(value, unit) * 1e3
                                  for value, unit in zip(seconds, self.pass_s)], self.models)


class Setup:
    """A workload's engines, store and watcher, warmed up and pre-populated."""

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: str) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.pairs: Dict[Tuple[str, str], Pair] = {}
        for model, scaled_options in spec.models:
            self.pairs[(model, BASE)] = Pair(model, BASE, ())
            if scaled_options:
                self.pairs[(model, SCALED)] = Pair(model, SCALED,
                                                   tuple(sorted(scaled_options.items())))
        self.profile_dir = os.path.join(workdir, "profiles")
        self.watch_dir = os.path.join(workdir, "watch")
        os.makedirs(self.profile_dir)
        os.makedirs(self.watch_dir)
        self.store = ProfileStore(os.path.join(workdir, "store"))
        self.watcher: Optional[FleetWatcher] = None
        if spec.fleet:
            # Only ingest and retention run inside poll_once; the dashboard
            # is rendered by the cycle itself so its cost is measured apart.
            self.watcher = FleetWatcher(
                self.watch_dir, self.store,
                retention=RetentionPolicy(max_runs=spec.runs_per_model),
                scrub_every_s=None, drift_every_s=None, snapshot_every_s=None,
                dashboard_every_s=None, remove_ingested=True)
        self.cycle_no = 0
        self._last_scaled: Optional[str] = None
        #: ``run_id → facts`` of every stored run the reference has read.
        self.facts: Dict[str, C.RunFacts] = {}
        # Benchmark frames are user code to the profiler, so a cycle's call
        # paths include whatever called it.  Running every cycle on this one
        # worker gives all of them the same stack, wherever the benchmark
        # asks for a cycle: pre-populated runs are then true same-config
        # baselines, and traced and untraced cycles capture the same paths.
        # The caller waits for each cycle, so only one thread works at a time.
        self._worker = ThreadPoolExecutor(max_workers=1)
        scratch_checks, scratch_record = C.Checks(), Record()
        #: Calibration passes timed during set-up, one beside each stored copy.
        self.passes: List[float] = []
        for model, _options in spec.models:
            # One real job per model warms every process-wide cache before
            # timing.  The rest of its share of the store are reruns of that
            # job: a rerun of the same config differs only in how long the
            # session ran, so each copy gets its own wall time.
            database = self.cycle(self.pairs[(model, BASE)], NULL_TRACER, scratch_checks,
                                  scratch_record)
            for _ in range(1, spec.runs_per_model):
                database.metadata.profiler_wall_seconds += 1.0
                self.store.ingest(database)
                self.passes.append(calibration_pass())

    def cycle(self, pair: "Pair", tracer, checks: C.Checks, record: "Record") -> ProfileDatabase:
        """Run one cycle on the worker and wait for it."""
        return self._worker.submit(run_cycle, self, pair, tracer, checks, record).result()

    def schedule(self) -> List[Pair]:
        """The next round of cycles: every model once, in an order drawn from the seed.

        In fleet-ci one cycle per round runs its model's scaled-up config,
        never the same model twice in a row, so retention always keeps a
        same-config baseline.
        """
        models = [model for model, _options in self.spec.models]
        order = self.rng.sample(models, len(models))
        scaled = None
        if self.spec.fleet:
            scaled = self.rng.choice([m for m in models if m != self._last_scaled])
            self._last_scaled = scaled
        return [self.pairs[(model, SCALED if model == scaled else BASE)] for model in order]

    def close(self) -> None:
        self._worker.shutdown(wait=True)
        if self.watcher is not None:
            self.watcher.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class _NullTracer:
    """Stands in for the tracer in untraced runs: every hook is a no-op."""

    class _Nothing:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

    _NOTHING = _Nothing()

    def phase(self, name: str):
        return self._NOTHING

    def cycle_span(self):
        return self._NOTHING

    def count(self, name: str, value: float = 1.0) -> None:
        return None

    def peak(self, name: str, value: float) -> None:
        return None


NULL_TRACER = _NullTracer()


def profiler_for(spec: WorkloadSpec, runner: Runner) -> DeepContextProfiler:
    config = ProfilerConfig(collect_native=spec.native, pc_sampling=spec.pc_sampling,
                            collect_cpu_time=True, program_name=runner.model)
    return DeepContextProfiler(runner.engine, config, jit_compiler=runner.compiler)


def run_cycle(setup: Setup, pair: Pair, tracer, checks: C.Checks,
              record: Record) -> ProfileDatabase:
    """One closed-loop cycle; returns the job's profile database."""
    spec, store = setup.spec, setup.store
    setup.cycle_no += 1
    cycle_start = time.perf_counter()
    unprofiled, profiled = pair.runners(spec.mode)
    engine = profiled.engine
    # Engine set-up, unprofiled steps, calibration and correctness checks are
    # not part of the user's cycle.
    excluded = time.perf_counter() - cycle_start
    passes: List[float] = []
    with tracer.cycle_span():
        profiler = profiler_for(spec, profiled)
        profiler.start()
        writer = None
        name = f"{pair.model}-{setup.cycle_no}.cctb"
        if spec.fleet:
            writer = StreamingProfileWriter(
                ProfileDatabase(profiler.tree, ProfileMetadata(program=pair.model,
                                                               workload=pair.model)),
                os.path.join(setup.watch_dir, name))
            writer.checkpoint()
        with tracer.phase("warm"):
            profiled.begin_job()
        started = time.perf_counter()
        unprofiled.begin_job()
        excluded += time.perf_counter() - started
        cycle_steps: List[Tuple[str, float]] = []
        for index in range(spec.pairs):
            order = ((UNPROFILED, PROFILED) if setup.rng.random() < 0.5
                     else (PROFILED, UNPROFILED))
            for kind in order:
                if kind == UNPROFILED:
                    started = time.perf_counter()
                    unprofiled.step()
                    elapsed = time.perf_counter() - started
                    passes.append(calibration_pass())
                    excluded += time.perf_counter() - started
                else:
                    ops0, launched0 = engine.op_count, engine.kernel_launches
                    with tracer.phase("step"):
                        started = time.perf_counter()
                        profiled.step()
                        profiler.mark_iteration()
                        if writer is not None:
                            writer.checkpoint()
                        elapsed = time.perf_counter() - started
                    tracer.count("framework.ops", engine.op_count - ops0)
                    tracer.count("framework.kernel_launches", engine.kernel_launches - launched0)
                    if setup.watcher is not None and index == 0:
                        with tracer.phase("tail"):
                            setup.watcher.poll_once()
                cycle_steps.append((kind, elapsed))

        cache = profiler.monitor.cache
        tracer.count("dlmonitor.cache.hits", cache.hits)
        tracer.count("dlmonitor.cache.lookups", cache.hits + cache.misses)
        baseline = None
        with tracer.phase("finish"):
            started = time.perf_counter()
            database = profiler.stop()
            database.metadata.workload = pair.model
            database.metadata.config["ci_config"] = pair.config
            if writer is not None:
                base_hash = config_hash({**database.metadata.config, "ci_config": BASE})
                baseline = store.latest(workload=pair.model, config_hash=base_hash)
                writer.database = database
                path = writer.close(compact=True, mark_complete=True)
            else:
                path = database.save(os.path.join(setup.profile_dir, name), format=BINARY)
            profile_bytes = os.path.getsize(path)
            analyzer = PerformanceAnalyzer()
            baseline_view = None
            if baseline is not None:
                baseline_view = store.open_view(baseline.run_id)
                analyzer.register(RegressionAnalysis(baseline=baseline_view))
            try:
                report = analyzer.analyze(database)
            finally:
                if baseline_view is not None:
                    baseline_view.close()
            finish_s = time.perf_counter() - started

        started = time.perf_counter()
        tracer.count("cct.nodes", profiler.tree.stored_node_count())
        tracer.count("correlation.unresolved", profiler.correlations.unresolved)
        C.check_gpu_time(checks, database.total_gpu_time(),
                         engine.runtime.total_kernel_seconds)
        C.check_kernel_count(checks, database.total_kernel_launches(),
                             engine.kernel_launches)
        C.check_correlations(checks, profiler.correlations.unresolved,
                             profiler.correlations.pending_count)
        if spec.fleet:
            flagged = [issue for issue in report.by_analysis("regression")
                       if issue.severity != Severity.INFO]
            C.check_regressions(checks, len(flagged), pair.config == SCALED)
        excluded += time.perf_counter() - started

        lock_wait0 = catalog_lock_stats()["wait_seconds"]
        with tracer.phase("ingest"):
            started = time.perf_counter()
            if setup.watcher is not None:
                ingested = setup.watcher.poll_once().ingested
            else:
                ingested = [store.ingest(path).run_id]
                store.prune(max_runs=spec.runs_per_model)
                os.unlink(path)
            ingest_s = time.perf_counter() - started
        tracer.count("store.catalog_lock_wait_ms",
                     (catalog_lock_stats()["wait_seconds"] - lock_wait0) * 1e3)
        tracer.count("store.runs", len(store))
        if not checks.expect(len(ingested) == 1, f"cycle ingested {ingested!r}"):
            return database
        run_id = ingested[0]
        base_ids = [run.run_id for run in store.find(workload=pair.model)
                    if run.run_id != run_id]

        with tracer.phase("query"):
            started = time.perf_counter()
            answers = query_mix(store, run_id, base_ids, tracer)
            query_s = time.perf_counter() - started

        started = time.perf_counter()
        passes.extend(calibration_pass() for _ in range(END_CALIBRATION_PASSES))
        setup.facts = {run: setup.facts.get(run) or C.run_facts(store.load(run))
                       for run in store.run_ids()}
        C.check_queries(checks, answers, C.reference_answers(
            list(setup.facts.values()), [setup.facts[run] for run in base_ids],
            [setup.facts[run_id]]))
        excluded += time.perf_counter() - started

        if setup.watcher is not None:
            with tracer.phase("dashboard"):
                dashboard.render_dashboard(store=store)
            with tracer.phase("idle"):
                setup.watcher.poll_once()
    cycle_s = time.perf_counter() - cycle_start - excluded
    # Recorded only now, so the lists hold entries of finished cycles only.
    pass_s = median(passes)
    profiled_s = [seconds for kind, seconds in cycle_steps if kind == PROFILED]
    record.models.append(pair.model)
    record.pass_s.append(pass_s)
    record.step_models.extend(pair.model for _ in profiled_s)
    record.step_ratios.extend(step_ratios(cycle_steps))
    record.profiled_s.extend(profiled_s)
    record.unprofiled_s.extend(seconds for kind, seconds in cycle_steps if kind == UNPROFILED)
    record.profiled_ref_s.extend(at_reference(seconds, pass_s) for seconds in profiled_s)
    record.finish_s.append(finish_s)
    record.ingest_s.append(ingest_s)
    record.query_s.append(query_s)
    record.cycle_s.append(cycle_s)
    record.profile_bytes.append(profile_bytes)
    return database


def query_mix(store: ProfileStore, run_id: str, base_ids: List[str],
              tracer) -> C.QueryAnswers:
    """The fixed fleet query mix: top kernels, rollup and total, then name drift."""
    answers = C.QueryAnswers()
    fleet = store.aggregator()
    try:
        answers.top_kernels = [(row["kernel"], row[M.METRIC_GPU_TIME])
                               for row in fleet.top_kernels(k=C.TOP_K)]
        answers.by_name = fleet.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                                  metric=M.METRIC_GPU_TIME)
        answers.total = fleet.total_metric(M.METRIC_GPU_TIME)
        tracer.count("index.served_runs", len(fleet.indexed_run_ids))
        tracer.count("index.queried_runs", fleet.run_count)
        tracer.count("aggregate.demoted_runs", len(fleet.degraded_run_ids))
    finally:
        fleet.close()
    older = store.aggregator(run_ids=base_ids)
    newest = store.aggregator(run_ids=[run_id])
    try:
        drift = differential.name_drift(older, newest, kind=FrameKind.GPU_KERNEL,
                                        metric=M.METRIC_GPU_TIME)
    finally:
        older.close()
        newest.close()
    answers.drift = {delta.name: (delta.status, delta.baseline_count, delta.baseline_sum,
                                  delta.candidate_count, delta.candidate_sum)
                     for delta in drift}
    return answers


def memory_overhead_mb(setup: Setup) -> float:
    """``tracemalloc`` peak of a profiled job minus that of the same job unprofiled.

    Measured in its own pass after the timed cycles, so tracing allocations
    never slows a timed step.  Each side starts from a full collection, so
    garbage left by earlier work does not move its peak.  For several
    models, the mean over models.
    """
    overheads = []
    for model, _options in setup.spec.models:
        runners = setup.pairs[(model, BASE)].runners(setup.spec.mode)
        tracemalloc.start()
        try:
            peaks = []
            for runner in runners:
                gc.collect()
                current = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                profiler = profiler_for(setup.spec, runner) if runner is runners[1] else None
                if profiler is not None:
                    profiler.start()
                runner.begin_job()
                for _ in range(MEMORY_STEPS):
                    runner.step()
                    if profiler is not None:
                        profiler.mark_iteration()
                if profiler is not None:
                    profiler.stop()
                peaks.append(tracemalloc.get_traced_memory()[1] - current)
                del profiler
        finally:
            tracemalloc.stop()
        overheads.append((peaks[1] - peaks[0]) / 2 ** 20)
    return sum(overheads) / len(overheads)
