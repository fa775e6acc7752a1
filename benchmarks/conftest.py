"""Shared configuration for the benchmark harness.

Every file in this directory regenerates one registered experiment (one
paper figure/example/proposition or one additional analysis; see
``python -m repro.cli list``) under
``pytest-benchmark`` timing.  Run them with::

    pytest benchmarks/ --benchmark-only

Each benchmark asserts the qualitative *shape* of the reproduced result (who
wins, what is bounded by what) in addition to timing the regeneration, so a
benchmark run doubles as a reproduction check.
"""

from __future__ import annotations

import pytest

from repro.backend import selection


@pytest.fixture(autouse=True, scope="module")
def _release_shm_pool():
    """Shut down the shm backend's worker pool after each benchmark module.

    The pool's workers never exit on their own, so a pool left alive here
    outlives this directory and every later wait on live child processes
    runs into its timeout.  The next shm kernel call rebuilds the pool.
    """
    yield
    shm = selection._instances.get("shm")
    if shm is not None:
        shm.close()
