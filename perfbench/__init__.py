"""The repository benchmark: profiling overhead, time-to-insight and fleet-CI latency.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``perfbench/README.md`` lists
the workloads, the metrics and which end-to-end metric each per-layer metric
should move.
"""
