"""Benchmark of rothlab: four workloads timed end to end and traced per module.

Run ``python3 perfbench/run.py --workload NAME`` from the repository root; see
README.md in this directory.
"""
