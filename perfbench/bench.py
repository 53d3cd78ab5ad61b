"""One benchmark run: untraced for the end-to-end metrics, traced for the per-layer ones."""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import checks as C
from .calibration import at_reference
from .jobs import NULL_TRACER, WORKLOADS, Record, Setup, memory_overhead_mb
from .layers import LAYER_METRICS, derive
from .stats import Tail, mean, median, tail
from .tracing import Tracer, instrumented

#: ``(name, unit)`` of every end-to-end metric, in reporting order.
#:
#: Times are given at the reference speed of :mod:`.calibration`: each is
#: rescaled by a calibration loop timed beside it, which cancels the drift
#: of a shared machine.  Tails of single steps and queries moved by a tenth
#: or more between runs even so; they are printed with the wall-clock
#: milliseconds but not gated.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("overhead_x", "ratio"),
    ("step_ms_p50", "ms"),
    ("finish_ms", "ms"),
    ("profile_bytes", "bytes"),
    ("mem_overhead_mb", "MiB"),
    ("cycle_ms_p50", "ms"),
    ("ingest_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
]
#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUP_REPEATS = 5


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    checks: C.Checks
    #: Human-readable lines: sample counts, tails, failures.
    notes: List[str] = field(default_factory=list)


def _rounds(setup: Setup, tracer, checks: C.Checks, record: Record, seconds: float) -> None:
    """Closed loop: whole rounds of cycles until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for pair in setup.schedule():
            setup.cycle(pair, tracer, checks, record)


def _tail_note(name: str, result: Tail) -> str:
    return (f"{name}: p{result.percentile:g} of {result.samples} samples "
            f"({result.beyond} beyond it)")


def run_untraced(workload: str, seed: int, seconds: float, workdir: str) -> Result:
    spec = WORKLOADS[workload]
    setup_wall, setup_times = [], []
    setup = None
    for repeat in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
        # Garbage of the previous set-up is collected here, not during the next.
        gc.collect()
        started = time.perf_counter()
        setup = Setup(spec, seed, os.path.join(workdir, f"setup-{repeat}"))
        setup_wall.append(time.perf_counter() - started - sum(setup.passes))
        setup_times.append(at_reference(setup_wall[-1], median(setup.passes)))
    checks, record = C.Checks(), Record()
    try:
        _rounds(setup, NULL_TRACER, checks, record, seconds)
        mem_mb = memory_overhead_mb(setup)
    finally:
        setup.close()

    overhead_tail, step_tail = tail(record.step_ratios), tail(record.profiled_ref_s)
    query_ref_s = [at_reference(value, unit) for value, unit in zip(record.query_s, record.pass_s)]
    query_tail = tail(query_ref_s)
    values = {
        "setup_s": median(setup_times),
        "overhead_x": record.overhead_x(),
        "step_ms_p50": record.step_ms_p50(),
        "finish_ms": record.at_reference_ms(record.finish_s),
        "profile_bytes": mean(record.profile_bytes),
        "mem_overhead_mb": mem_mb,
        "cycle_ms_p50": record.at_reference_ms(record.cycle_s),
        "ingest_ms_p50": record.at_reference_ms(record.ingest_s),
        "query_ms_p50": record.at_reference_ms(record.query_s),
    }
    informational = {
        "overhead_x_p95": (overhead_tail.value, "ratio"),
        "step_ms_p95": (step_tail.value * 1e3, "ms"),
        "query_ms_p95": (query_tail.value * 1e3, "ms"),
        "calibration_pass_ms": (median(record.pass_s) * 1e3, "ms wall"),
        "setup_wall_s": (median(setup_wall), "s wall"),
        "unprofiled_step_wall_ms_p50": (median(record.unprofiled_s) * 1e3, "ms wall"),
        "step_wall_ms_p50": (median(record.profiled_s) * 1e3, "ms wall"),
        "finish_wall_ms": (median(record.finish_s) * 1e3, "ms wall"),
        "cycle_wall_ms_p50": (median(record.cycle_s) * 1e3, "ms wall"),
        "ingest_wall_ms_p50": (median(record.ingest_s) * 1e3, "ms wall"),
        "query_wall_ms_p50": (median(record.query_s) * 1e3, "ms wall"),
    }
    units = dict(END_TO_END)
    notes = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in informational.items()]
    notes += [
        f"samples: {len(setup_times)} set-ups, {len(record.cycle_s)} cycles, "
        f"{len(record.profiled_s)} profiled and {len(record.unprofiled_s)} unprofiled steps",
        _tail_note("overhead_x_p95", overhead_tail),
        _tail_note("step_ms_p95", step_tail),
        _tail_note("query_ms_p95", query_tail),
    ]
    return Result({name: (values[name], units[name]) for name, _unit in END_TO_END},
                  checks, notes)


def _saved_bytes(database, path: str) -> bytes:
    """The profile as saved, with its one wall-clock field zeroed.

    ``profiler_wall_seconds`` measures how long the session ran, which the
    trace changes by design; every other byte must match.
    """
    wall = database.metadata.profiler_wall_seconds
    database.metadata.profiler_wall_seconds = 0.0
    try:
        database.save(path, format=database.FORMAT_BINARY)
    finally:
        database.metadata.profiler_wall_seconds = wall
    with open(path, "rb") as handle:
        return handle.read()


def run_traced(workload: str, seed: int, seconds: float, workdir: str,
               trace_path: str, provenance: Dict[str, object]) -> Result:
    """Alternate untraced and traced cycles on two identical set-ups.

    Alternating exposes both to the same drift of the machine, so
    ``trace_overhead_x`` compares like with like.  The set-ups draw the same
    schedule from the seed, so the first pair of cycles runs the same job,
    and their saved profiles must match byte for byte.
    """
    spec = WORKLOADS[workload]
    reference = Setup(spec, seed, os.path.join(workdir, "untraced"))
    traced_setup = Setup(spec, seed, os.path.join(workdir, "traced"))
    checks, untraced, traced = C.Checks(), Record(), Record()
    tracer = Tracer()
    profiles: List[bytes] = []
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for plain, same in zip(reference.schedule(), traced_setup.schedule()):
                untraced_db = reference.cycle(plain, NULL_TRACER, checks, untraced)
                with instrumented(tracer):
                    traced_db = traced_setup.cycle(same, tracer, checks, traced)
                if not profiles:
                    profiles = [_saved_bytes(untraced_db, os.path.join(workdir, "untraced.cctb")),
                                _saved_bytes(traced_db, os.path.join(workdir, "traced.cctb"))]
        C.check_transparency(checks, *profiles)
    finally:
        reference.close()
        traced_setup.close()

    values = derive(tracer, traced, median(untraced.profiled_s))
    tracer.write_chrome_trace(trace_path, provenance)
    notes = [f"traced: {tracer.cycle} cycles, {len(tracer.phase_spans['step'])} profiled steps, "
             f"{len(tracer.events)} spans kept, {tracer.dropped} dropped",
             f"chrome trace: {trace_path}"]
    notes += [f"{metric.name} -> {metric.moves}" for metric in LAYER_METRICS]
    return Result({metric.name: (values[metric.name], metric.unit) for metric in LAYER_METRICS},
                  checks, notes)


def provenance(root: str, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(root), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def git_sha(root: str) -> str:
    """The checked-out commit ("unknown" outside a git repository or without git)."""
    # The ceiling keeps git from searching the directories above ``root``.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"
