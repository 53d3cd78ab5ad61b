#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload eager-train --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs the
traced pass and reports the per-layer metrics, writing a Chrome trace to
``.perfbench_out/``.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The benchmark builds on the sources under
``src/`` next to this directory and exits with an error, printing no result,
when they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import bench
    from perfbench.jobs import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))

    info = bench.provenance(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            result = bench.run_traced(args.workload, args.seed, args.seconds, workdir,
                                      os.path.join(OUT_DIR, f"{tag}.trace.json"), info)
        else:
            result = bench.run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = result.checks
    print(" ".join(f"{key}={value}" for key, value in info.items()))
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {checks.failed_frac:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for line in result.notes + [f"FAILED: {message}" for message in checks.messages]:
        print(line)
    summary = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(summary, provenance=info, notes=result.notes,
                       failures=checks.messages), handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
