"""The repository benchmark: Bob's end-to-end SkNN query cost on three workloads.

Run one workload with ``python3 sknnbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``run.py``.
"""
