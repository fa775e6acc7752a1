"""Shared-memory multiprocess compute backend.

The ``shm`` backend runs the campaign kernel, :meth:`sparse_grid_partials`
over CSR, by splitting the trial range across a persistent pool of worker
processes.  It is the repository's one trial-range fan-out.  The
counter-based splitmix64 stream makes trial partitions bit-identical to a
serial run by construction, so fan-out is pure engineering:

- **Build once, map everywhere.**  The CSR buffers (``indptr``, ``indices``
  and ``powers``) are copied into :mod:`multiprocessing.shared_memory`
  segments the first time they are seen; workers attach read-only NumPy
  views by segment name.  No per-call pickling of the population — a
  dispatch ships only the segment names, the already-resolved grid points
  and a handful of scalars.
- **One merge.**  :func:`~repro.backend.base.split_trial_ranges` cuts the
  range, and the workers' partials merge by concatenating per-trial sums in
  offset order and adding per-column totals elementwise, the associations
  the kernel partition tests pin bit-identical to the serial kernel.
- **One fault-tolerant pool.**  The workers run on
  :class:`~repro.backend.resilient.ResilientExecutor` with its defaults (no
  deadline, default retries and loss budget).  A killed worker's lost trial
  ranges are re-dispatched on a fresh pool and return identical bytes; a
  call whose ranges keep killing workers raises once a range has used up
  ``max_pool_losses``.  Each range passes the chaos harness's ``task``
  checkpoint, so the crash path is tested.
- **Inner NumPy delegation.**  Every other primitive
  (:meth:`violation_trials`, :meth:`market_choices`,
  :meth:`campaign_verdicts`, :meth:`sparse_masked_power_sums`, array
  construction, …) delegates to an inner
  :class:`~repro.backend.numpy_backend.NumpyBackend`, and the workers run
  the NumPy kernel too — the shm backend is a scheduler, not a new
  numerics implementation, which is what keeps it byte-identical to numpy;
  its census trials are byte-identical to python's too.

Selection: the backend registers *behind* numpy in auto-detection order, so
it is opt-in via ``REPRO_BACKEND=shm`` (or ``--backend shm``).  Its one knob
is ``REPRO_SHM_WORKERS``, the worker-process count (default
``min(4, cpu_count)``); changing it recycles the pool on the next call.
Calls below :data:`INLINE_CELL_LIMIT` trial-cells run inline on the inner
NumPy backend instead of paying a pool round-trip.

Fork safety: the pool is only ever built in the top-level process.  Inside
a multiprocessing child (an orchestrator worker, a serve build) dispatch
degrades to the inline NumPy path — nested pools would oversubscribe the
host, and pool workers exit via ``os._exit`` without running ``atexit``,
which would orphan a nested pool's processes into the exit join.  A child
that inherited this instance through ``fork`` also drops the parent's pool
handle and segment cache on first use (they are corpses there); the parent
keeps sole ownership of the published segments.

Per-call dispatch timings are recorded into
:data:`repro.backend.timing.KERNEL_TIMINGS` under ``shm_campaign_grid``, so
the serve layer's ``/metrics`` endpoint exposes the multiprocess path in
production.
"""

from __future__ import annotations

import array as _stdlib_array
import atexit
import importlib
import multiprocessing
import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from functools import partial, reduce
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised indirectly via availability_error()
    import numpy as _np
except ImportError:  # pragma: no cover - the numpy-less environment
    _np = None

try:  # pragma: no cover - stdlib, but gate anyway for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

try:  # pragma: no cover - present wherever shared_memory is
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover
    _resource_tracker = None

from repro.backend.base import (
    ComputeBackend,
    GridPointResult,
    MarketCumulative,
    ResolvedGridPoint,
    SparseExposure,
    SparseGridPartial,
    TrialBatchResult,
    add_elementwise,
    split_trial_ranges,
    validate_sparse_partial_arguments,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.resilient import ResilientExecutor
from repro.backend.timing import timed_kernel
from repro.core.exceptions import BackendError

#: Environment variable selecting the worker-process count.
WORKERS_ENV_VAR = "REPRO_SHM_WORKERS"

#: Below this many trial-cells a kernel call runs inline on the inner
#: NumPy backend — a pool round-trip costs more than the arithmetic.
INLINE_CELL_LIMIT = 1 << 16

#: Parent-side cap on pinned shared-memory publications (LRU evicted).
_PUBLISH_CAPACITY = 16

#: Worker-side cap on attached segment views (LRU evicted).
_ATTACH_CAPACITY = 16


# -- worker-process side -------------------------------------------------------
#
# Everything below runs inside pool workers.  Workers never call
# ``get_backend`` (which would resolve REPRO_BACKEND=shm right back to this
# module); they hold their own NumpyBackend and a by-name cache of attached
# shared-memory views.

_WORKER_BACKEND: Optional[NumpyBackend] = None
_WORKER_SEGMENTS: "OrderedDict[str, Tuple[object, object]]" = OrderedDict()

#: Whether attaching a segment must be unregistered from this process's
#: resource tracker.  True only for spawn-style pools, where each worker
#: runs its *own* tracker that would otherwise unlink the parent's segment
#: when the worker exits (the Python <= 3.12 register-on-attach behavior).
#: Fork-style pools share the parent's tracker, so the registrations
#: dedupe in one set and a worker-side unregister would instead *steal*
#: the parent's own registration.
_UNREGISTER_ON_ATTACH = False


def _worker_init(unregister_on_attach: bool) -> None:
    global _UNREGISTER_ON_ATTACH
    _UNREGISTER_ON_ATTACH = unregister_on_attach

#: (segment name, dtype string, shape tuple) — all a worker needs to map one
#: published array.
SegmentRef = Tuple[str, str, Tuple[int, ...]]


def _worker_numpy() -> NumpyBackend:
    global _WORKER_BACKEND
    if _WORKER_BACKEND is None:
        _WORKER_BACKEND = NumpyBackend()
    return _WORKER_BACKEND


def _attach_view(ref: SegmentRef):
    """Attach (or reuse) the read-only NumPy view of a published segment."""
    name, dtype, shape = ref
    cached = _WORKER_SEGMENTS.get(name)
    if cached is not None:
        _WORKER_SEGMENTS.move_to_end(name)
        return cached[1]
    segment = _shared_memory.SharedMemory(name=name)
    if _UNREGISTER_ON_ATTACH and _resource_tracker is not None:
        try:
            _resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
    view = _np.ndarray(shape, dtype=_np.dtype(dtype), buffer=segment.buf)
    view.flags.writeable = False
    _WORKER_SEGMENTS[name] = (segment, view)
    while len(_WORKER_SEGMENTS) > _ATTACH_CAPACITY:
        _, (old_segment, old_view) = _WORKER_SEGMENTS.popitem(last=False)
        del old_view
        try:
            old_segment.close()
        except BufferError:  # pragma: no cover - a live export pins the map
            pass
    return view


def _worker_sparse_partials(
    indptr_ref: SegmentRef,
    indices_ref: SegmentRef,
    powers_ref: SegmentRef,
    probabilities: Tuple[float, ...],
    disclosed: Tuple[float, ...],
    points: Tuple[ResolvedGridPoint, ...],
    trials: int,
    trial_offset: int,
    row_offset: int,
    total_rows: int,
):
    """One trial range of :meth:`sparse_grid_partials` over the shared views.

    The CSR structure is rebuilt from shared views with the validation flag
    pre-set: the parent already validated the structure once, and the
    O(nnz) scalar re-validation would dwarf the kernel at 10⁷ replicas.
    """
    # Imported here: repro.testing.chaos imports repro.backend.base, so a
    # module-level import would close an import cycle.
    from repro.testing.chaos import chaos_checkpoint

    chaos_checkpoint("task", key=f"shm_campaign_grid:{trial_offset}+{trials}")
    sparse = SparseExposure(
        indptr=_attach_view(indptr_ref),
        indices=_attach_view(indices_ref),
        powers=_attach_view(powers_ref),
        success_probabilities=probabilities,
        disclosed_at=disclosed,
    )
    object.__setattr__(sparse, "_validated", True)
    return _worker_numpy().sparse_grid_partials(
        sparse,
        points,
        trials=trials,
        trial_offset=trial_offset,
        row_offset=row_offset,
        total_rows=total_rows,
    )


# -- parent-process side -------------------------------------------------------


def _as_ndarray(values, dtype: str):
    """``values`` as a C-contiguous ndarray of ``dtype`` (zero-copy when it is)."""
    if isinstance(values, _np.ndarray):
        array = values
    elif isinstance(values, _stdlib_array.array):
        array = _np.frombuffer(values, dtype=values.typecode)
    else:
        array = _np.asarray(values)
    return _np.ascontiguousarray(array, dtype=_np.dtype(dtype))


class _SharedSegment:
    """Parent-side handle for one array's shared-memory publication."""

    __slots__ = ("segment", "dtype", "shape")

    def __init__(self, segment, dtype: str, shape: Tuple[int, ...]) -> None:
        self.segment = segment
        self.dtype = dtype
        self.shape = shape

    def ref(self) -> SegmentRef:
        return (self.segment.name, self.dtype, self.shape)

    def release(self) -> None:
        try:
            self.segment.close()
        except BufferError:  # pragma: no cover - a live export pins the map
            return
        try:
            self.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ShmBackend(ComputeBackend):
    """Multiprocess kernels over shared-memory array views.

    Bit-identical to :class:`NumpyBackend` on every kernel (the workers run
    the NumPy kernels on trial sub-ranges whose merge associations the
    kernel partition tests pin); opt-in via ``REPRO_BACKEND=shm``.
    """

    name = "shm"

    _availability_checked = False
    _availability_reason: Optional[str] = None

    def __init__(self) -> None:
        reason = type(self).availability_error()
        if reason is not None:
            raise BackendError(f"shm backend unavailable: {reason}")
        self._inner = NumpyBackend()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._pool: Optional[ResilientExecutor] = None
        self._pool_workers = 0
        # id-keyed, strong-ref LRUs: holding the source object pins its id,
        # so a cache hit can never alias a recycled address.
        self._published: "OrderedDict[int, Tuple[object, _SharedSegment]]" = (
            OrderedDict()
        )
        atexit.register(self.close)

    # -- availability ----------------------------------------------------------

    @classmethod
    def availability_error(cls) -> Optional[str]:
        if not cls._availability_checked:
            cls._availability_reason = cls._probe()
            cls._availability_checked = True
        return cls._availability_reason

    @classmethod
    def is_available(cls) -> bool:
        return cls.availability_error() is None

    @staticmethod
    def _probe() -> Optional[str]:
        if _np is None:
            return (
                "numpy is not importable (the shm workers run the NumPy "
                "kernels; install numpy or use REPRO_BACKEND=python)"
            )
        if _shared_memory is None:  # pragma: no cover - exotic builds only
            return "multiprocessing.shared_memory is not importable"
        try:
            # Platforms without POSIX semaphores (multiprocessing's
            # synchronize module) cannot host the worker pool at all.
            importlib.import_module("multiprocessing.synchronize")
        except ImportError as error:  # pragma: no cover - platform-specific
            return f"multiprocessing synchronization is unavailable: {error}"
        try:
            probe = _shared_memory.SharedMemory(create=True, size=16)
        except (OSError, ValueError) as error:
            return f"cannot create a shared-memory segment: {error}"
        try:
            probe.close()
            probe.unlink()
        except OSError:  # pragma: no cover - probe cleanup best-effort
            pass
        return None

    # -- configuration ---------------------------------------------------------

    def _worker_count(self) -> int:
        raw = os.environ.get(WORKERS_ENV_VAR)
        if raw is None or not raw.strip():
            return max(1, min(4, os.cpu_count() or 1))
        try:
            value = int(raw)
        except ValueError:
            raise BackendError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise BackendError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}"
            )
        return value

    def _dispatch_workers(self, cells: int) -> int:
        """Pool size for a workload of ``cells`` trial-cells (1 = inline).

        Any multiprocessing child (an orchestrator ``--parallel`` worker, a
        serve build, a daemonic pool member) degrades to inline.
        Nested pools would oversubscribe the host for no speedup — the
        outer fan-out already owns the cores — and a ``ProcessPoolExecutor``
        worker exits through ``os._exit``, which skips ``atexit``: a nested
        pool built there is never shut down, so the worker's exit handler
        (``multiprocessing.util._exit_function``) joins the orphaned
        grandchildren forever and the outer run deadlocks.  Inline dispatch
        runs the exact inner NumPy kernels, so only the fan-out strategy
        changes, never the bytes.
        """
        workers = self._worker_count()
        if workers <= 1 or cells < INLINE_CELL_LIMIT:
            return 1
        current = multiprocessing.current_process()
        if multiprocessing.parent_process() is not None or current.daemon:
            return 1
        return workers

    # -- pool and publication management ---------------------------------------

    def _reset_after_fork_locked(self) -> None:
        """Drop state inherited through ``fork`` — it is not ours.

        The selection cache is process-global, so a forked worker (an
        orchestrator ``--parallel`` child, a serve build) inherits this very
        instance.  Its pool object is a corpse there — the executor's feeder
        thread died in the fork, so a submit would hang forever — and its
        published segments belong to the parent, which may unlink them at
        any time.  First use in a new process discards both; the child
        rebuilds its own pool and publications on demand.
        """
        if self._pid == os.getpid():
            return
        self._pool = None
        self._pool_workers = 0
        self._published.clear()
        self._pid = os.getpid()

    def _ensure_pool(self, workers: int) -> ResilientExecutor:
        with self._lock:
            self._reset_after_fork_locked()
            if self._pool is not None and self._pool_workers != workers:
                stale, self._pool = self._pool, None
            else:
                stale = None
        if stale is not None:
            # Shut the stale pool down outside the lock; REPRO_SHM_WORKERS
            # changed and the next call deserves the requested width.
            stale.shutdown(wait=True)
        with self._lock:
            if self._pool is None:
                # Prefer fork: workers inherit the attached segments' fds
                # cheaply and share the parent's resource tracker (see
                # _worker_init for the unregister-on-attach asymmetry).
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
                self._pool = ResilientExecutor(
                    max_workers=workers,
                    factory=partial(
                        ProcessPoolExecutor,
                        max_workers=workers,
                        mp_context=context,
                        initializer=_worker_init,
                        initargs=(context.get_start_method() != "fork",),
                    ),
                )
                self._pool_workers = workers
            return self._pool

    def _publish(self, values, dtype: str) -> SegmentRef:
        """Pin ``values`` into shared memory once; return the worker ref."""
        key = id(values)
        with self._lock:
            self._reset_after_fork_locked()
            entry = self._published.get(key)
            if entry is not None and entry[0] is values and entry[1].dtype == dtype:
                self._published.move_to_end(key)
                return entry[1].ref()
        source = _as_ndarray(values, dtype)
        segment = _shared_memory.SharedMemory(
            create=True, size=max(1, source.nbytes)
        )
        staged = _np.ndarray(source.shape, dtype=source.dtype, buffer=segment.buf)
        staged[...] = source
        del staged  # drop the buffer export so release() can close the map
        handle = _SharedSegment(segment, dtype, tuple(source.shape))
        evicted: List[_SharedSegment] = []
        with self._lock:
            self._published[key] = (values, handle)
            while len(self._published) > _PUBLISH_CAPACITY:
                _, (_, old_handle) = self._published.popitem(last=False)
                evicted.append(old_handle)
        for old_handle in evicted:
            old_handle.release()
        return handle.ref()

    def close(self) -> None:
        """Shut the worker pool down and unlink every published segment."""
        with self._lock:
            self._reset_after_fork_locked()
            pool, self._pool = self._pool, None
            self._pool_workers = 0
            published = [handle for _, handle in self._published.values()]
            self._published.clear()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        for handle in published:
            handle.release()

    # -- delegated primitives --------------------------------------------------

    def violation_trials(
        self,
        shares: Sequence[float],
        *,
        vulnerability_probability: float,
        exploit_budget: int,
        trials: int,
        seed: int,
        tolerances: Sequence[float],
    ) -> TrialBatchResult:
        return self._inner.violation_trials(
            shares,
            vulnerability_probability=vulnerability_probability,
            exploit_budget=exploit_budget,
            trials=trials,
            seed=seed,
            tolerances=tolerances,
        )

    def market_choices(
        self,
        seed: int,
        start: int,
        stop: int,
        markets: Sequence[MarketCumulative],
    ) -> List[Tuple[int, ...]]:
        return self._inner.market_choices(seed, start, stop, markets)

    def asarray(self, values: Sequence[float]) -> Sequence[float]:
        return self._inner.asarray(values)

    def sparse_masked_power_sums(self, sparse: SparseExposure) -> Tuple[float, ...]:
        return self._inner.sparse_masked_power_sums(sparse)

    def campaign_verdicts(
        self,
        partials: Sequence[SparseGridPartial],
        points: Sequence[ResolvedGridPoint],
        *,
        trials: int,
        total_power: float,
    ) -> Tuple[GridPointResult, ...]:
        return self._inner.campaign_verdicts(
            partials, points, trials=trials, total_power=total_power
        )

    # -- campaign kernel -------------------------------------------------------

    def sparse_grid_partials(
        self,
        sparse: SparseExposure,
        points: Sequence[ResolvedGridPoint],
        *,
        trials: int,
        trial_offset: int = 0,
        row_offset: int = 0,
        total_rows: Optional[int] = None,
    ) -> Tuple[SparseGridPartial, ...]:
        total = validate_sparse_partial_arguments(
            sparse,
            points,
            trials=trials,
            trial_offset=trial_offset,
            row_offset=row_offset,
            total_rows=total_rows,
        )
        staged_points = tuple(points)
        workers = self._dispatch_workers(trials * sparse.nnz)
        with timed_kernel("shm_campaign_grid", trials=trials * len(staged_points)):
            if workers <= 1:
                return self._inner.sparse_grid_partials(
                    sparse,
                    staged_points,
                    trials=trials,
                    trial_offset=trial_offset,
                    row_offset=row_offset,
                    total_rows=total,
                )
            indptr_ref = self._publish(sparse.indptr, "int64")
            indices_ref = self._publish(sparse.indices, "int64")
            powers_ref = self._publish(sparse.powers, "float64")
            probabilities = tuple(float(p) for p in sparse.success_probabilities)
            disclosed = tuple(float(t) for t in sparse.disclosed_at)
            pool = self._ensure_pool(workers)
            futures = [
                pool.submit(
                    _worker_sparse_partials,
                    indptr_ref,
                    indices_ref,
                    powers_ref,
                    probabilities,
                    disclosed,
                    staged_points,
                    count,
                    trial_offset + offset,
                    row_offset,
                    total,
                )
                for offset, count in split_trial_ranges(trials, workers)
            ]
            return self._merge_sparse_ranges(
                staged_points, [future.result() for future in futures]
            )

    @staticmethod
    def _merge_sparse_ranges(
        points: Tuple[ResolvedGridPoint, ...],
        payloads: Sequence[Sequence[SparseGridPartial]],
    ) -> Tuple[SparseGridPartial, ...]:
        """Merge trial-range partials back into full-range partials.

        ``per_trial_compromised`` concatenates in offset order (each trial's
        value comes from exactly one range — exact); the per-column totals
        add elementwise in offset order (exact for dyadic powers, like every
        merge seam).
        """
        return tuple(
            SparseGridPartial(
                per_trial_compromised=_np.concatenate(
                    [payload[position].per_trial_compromised for payload in payloads]
                ),
                per_vulnerability_totals=reduce(
                    add_elementwise,
                    [payload[position].per_vulnerability_totals for payload in payloads],
                ),
            )
            for position in range(len(points))
        )
