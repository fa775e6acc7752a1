"""Layered benchmark of the fault-independence reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh process and prints its metrics; see
``perfbench/README.md`` for the workloads and what each layer should move.
"""

from pathlib import Path

#: The repository checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent
