"""Wall-time and memory benchmark of the GP-metis reproduction at k = 64.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and metrics.
"""
