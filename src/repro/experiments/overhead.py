"""Figure 6 — time and memory overhead sweeps.

For every workload the paper compares four configurations: no profiler, the
framework profiler (PyTorch/JAX profiler), DeepContext without native call
paths, and DeepContext with native call paths ("DeepContext Native"), on both
the Nvidia and AMD platforms, in both eager (PyTorch) and JIT (JAX) modes.

Time overhead is the *wall-clock* ratio of the instrumented run over the
uninstrumented run — the profiler's interception, call-path construction and
aggregation are real Python work here, so the ratio reflects genuine profiling
cost even though the workload itself runs on simulated hardware.  Memory
overhead is the ratio of (application footprint + profile data) to the
application footprint; DeepContext's profile is the aggregated CCT while the
baselines keep one event per operator/kernel occurrence.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..workloads import create_workload, workload_names
from .runner import (
    MODE_EAGER,
    MODE_JIT,
    PROFILER_DEEPCONTEXT,
    PROFILER_DEEPCONTEXT_NATIVE,
    PROFILER_FRAMEWORK,
    PROFILER_NONE,
    RunResult,
    run_workload,
)

#: The three instrumented configurations compared against the uninstrumented run.
COMPARED_PROFILERS = (PROFILER_FRAMEWORK, PROFILER_DEEPCONTEXT, PROFILER_DEEPCONTEXT_NATIVE)


@dataclass
class OverheadRow:
    """One (workload, device, mode) entry of Figure 6."""

    workload: str
    device: str
    mode: str
    baseline_wall_seconds: float
    time_overhead: Dict[str, float] = field(default_factory=dict)
    memory_overhead: Dict[str, float] = field(default_factory=dict)
    kernel_launches: int = 0
    profile_bytes: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "device": self.device,
            "mode": self.mode,
            "time_overhead": dict(self.time_overhead),
            "memory_overhead": dict(self.memory_overhead),
            "kernel_launches": self.kernel_launches,
        }


def measure_overhead(workload_name: str, device: str = "a100", mode: str = MODE_EAGER,
                     iterations: int = 3, small: bool = True,
                     repeats: int = 1) -> OverheadRow:
    """Measure time and memory overhead of every profiler configuration."""

    def run(profiler: str) -> RunResult:
        walls = []
        last: Optional[RunResult] = None
        for _repeat in range(max(1, repeats)):
            # Start every timed run from a full collection: otherwise a
            # collection owed to garbage left by earlier work can land inside
            # one short run and multiply its wall time.
            gc.collect()
            workload = create_workload(workload_name, small=small)
            last = run_workload(workload, device=device, mode=mode,
                                profiler=profiler, iterations=iterations)
            walls.append(last.wall_seconds)
        assert last is not None
        last.wall_seconds = statistics.median(walls)
        return last

    baseline = run(PROFILER_NONE)
    row = OverheadRow(
        workload=baseline.workload,
        device=device,
        mode=mode,
        baseline_wall_seconds=baseline.wall_seconds,
        kernel_launches=baseline.kernel_launches,
    )
    baseline_wall = max(baseline.wall_seconds, 1e-9)
    for profiler in COMPARED_PROFILERS:
        result = run(profiler)
        row.time_overhead[profiler] = result.wall_seconds / baseline_wall
        row.memory_overhead[profiler] = result.memory_overhead
        row.profile_bytes[profiler] = float(result.profile_bytes)
    return row


def overhead_sweep(workloads: Optional[Sequence[str]] = None, device: str = "a100",
                   mode: str = MODE_EAGER, iterations: int = 3, small: bool = True,
                   repeats: int = 1) -> List[OverheadRow]:
    """Figure-6-style sweep over a set of workloads on one platform/mode."""
    names = list(workloads) if workloads is not None else workload_names()
    return [measure_overhead(name, device=device, mode=mode, iterations=iterations,
                             small=small, repeats=repeats)
            for name in names]


def median_overheads(rows: Iterable[OverheadRow], which: str = "time") -> Dict[str, float]:
    """Median per-profiler overhead across workloads (the paper's summary numbers)."""
    accumulator: Dict[str, List[float]] = {}
    for row in rows:
        source = row.time_overhead if which == "time" else row.memory_overhead
        for profiler, value in source.items():
            accumulator.setdefault(profiler, []).append(value)
    return {profiler: statistics.median(values) for profiler, values in accumulator.items()}


def memory_growth_with_iterations(workload_name: str, device: str = "a100",
                                  mode: str = MODE_EAGER,
                                  iteration_counts: Sequence[int] = (1, 2, 4, 8),
                                  small: bool = True) -> Dict[str, List[float]]:
    """Profile size vs iteration count: flat for DeepContext, linear for baselines."""
    growth: Dict[str, List[float]] = {PROFILER_FRAMEWORK: [], PROFILER_DEEPCONTEXT: []}
    for iterations in iteration_counts:
        for profiler in (PROFILER_FRAMEWORK, PROFILER_DEEPCONTEXT):
            workload = create_workload(workload_name, small=small)
            result = run_workload(workload, device=device, mode=mode,
                                  profiler=profiler, iterations=iterations)
            growth[profiler].append(float(result.profile_bytes))
    return growth


def format_overhead_rows(rows: Sequence[OverheadRow], which: str = "time") -> str:
    """Plain-text rendering of one Figure-6 panel."""
    lines = [f"{'Workload':18s} {'framework':>10s} {'deepcontext':>12s} {'dc_native':>10s}"]
    for row in rows:
        source = row.time_overhead if which == "time" else row.memory_overhead
        lines.append(
            f"{row.workload:18s} "
            f"{source.get(PROFILER_FRAMEWORK, 0.0):10.2f} "
            f"{source.get(PROFILER_DEEPCONTEXT, 0.0):12.2f} "
            f"{source.get(PROFILER_DEEPCONTEXT_NATIVE, 0.0):10.2f}"
        )
    medians = median_overheads(rows, which)
    lines.append(
        f"{'median':18s} "
        f"{medians.get(PROFILER_FRAMEWORK, 0.0):10.2f} "
        f"{medians.get(PROFILER_DEEPCONTEXT, 0.0):12.2f} "
        f"{medians.get(PROFILER_DEEPCONTEXT_NATIVE, 0.0):10.2f}"
    )
    return "\n".join(lines)


def jax_vs_pytorch(workloads: Sequence[str] = ("dlrm", "unet", "gnn", "resnet"),
                   device: str = "a100", iterations: int = 2,
                   small: bool = True) -> List[Dict[str, float]]:
    """§6.6 — compare eager (PyTorch) vs JIT (JAX) execution of the same models."""
    rows: List[Dict[str, float]] = []
    for name in workloads:
        eager = run_workload(create_workload(name, small=small), device=device,
                             mode=MODE_EAGER, profiler=PROFILER_NONE, iterations=iterations)
        jitted = run_workload(create_workload(name, small=small), device=device,
                              mode=MODE_JIT, profiler=PROFILER_NONE, iterations=iterations)
        rows.append({
            "workload": name,
            "eager_gpu_seconds": eager.gpu_kernel_seconds,
            "jit_gpu_seconds": jitted.gpu_kernel_seconds,
            "eager_kernels": float(eager.kernel_launches),
            "jit_kernels": float(jitted.kernel_launches),
            "speedup": (eager.gpu_kernel_seconds / jitted.gpu_kernel_seconds
                        if jitted.gpu_kernel_seconds else 0.0),
            "kernel_reduction": (1.0 - jitted.kernel_launches / eager.kernel_launches
                                 if eager.kernel_launches else 0.0),
        })
    return rows
