"""Pluggable compute backends for the analysis hot paths.

The reproduction's quantitative claims are regenerated by Monte-Carlo trials
whose cost scales as ``trials × configurations × sweep_points``.  This
package provides that arithmetic behind a single seam that holds only the
kernels whose implementations differ, every kernel reading one
counter-based stream so every backend draws the same uniforms:

- :mod:`repro.backend.python_backend` — the dependency-free scalar fallback
  and the reference the other backends are tested against;
- :mod:`repro.backend.numpy_backend` — a vectorized implementation that
  hashes whole blocks of trials and cells at once;
- :mod:`repro.backend.shm_backend` — the NumPy backend plus a persistent
  process pool: its campaign kernel splits the trial range across workers
  over shared-memory array views, bit-identical to numpy, and every other
  kernel is NumPy's own; opt-in via ``REPRO_BACKEND=shm`` with
  ``REPRO_SHM_WORKERS`` sizing the pool;
- :mod:`repro.backend.selection` — registry plus resolution via explicit
  argument, :func:`set_default_backend` (the CLI flag), the
  ``REPRO_BACKEND`` environment variable, or auto-detection.

Typical use::

    from repro.backend import get_backend

    backend = get_backend()            # auto-detect (numpy when installed)
    backend = get_backend("python")    # force the fallback
    # or: REPRO_BACKEND=python python -m repro.cli run --all
"""

from repro.backend.base import ComputeBackend, TrialBatchResult
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.python_backend import PythonBackend
from repro.backend.selection import (
    AUTO,
    BACKEND_ENV_VAR,
    availability_errors,
    available_backends,
    get_backend,
    registered_backends,
    set_default_backend,
    use_backend,
)
from repro.backend.shm_backend import ShmBackend

__all__ = [
    "AUTO",
    "BACKEND_ENV_VAR",
    "ComputeBackend",
    "NumpyBackend",
    "PythonBackend",
    "ShmBackend",
    "TrialBatchResult",
    "availability_errors",
    "available_backends",
    "get_backend",
    "registered_backends",
    "set_default_backend",
    "use_backend",
]
