"""Fault-tolerant executor: deadlines, retries, pool recycling, attempt log.

:class:`ResilientExecutor` wraps any :class:`concurrent.futures.Executor`
factory (a process pool by default) behind the standard ``submit()`` seam.
Every process fan-out in the repository runs on it — ``run_experiments``'s
parallel runs, the HTTP result service's ``ResultService.executor`` and the
shm backend's kernel pool — and it adds the failure handling none of the raw
pools have:

- **per-task deadlines** — an attempt that has not produced a result within
  ``deadline`` seconds is abandoned, the pool is recycled (a hung worker
  permanently occupies a slot otherwise; recycling terminates it), and the
  task is retried on the fresh pool;
- **bounded retries with exponential backoff and deterministic jitter** —
  attempt ``k`` waits ``min(cap, base * 2^(k-1))`` scaled by a jitter factor
  drawn from the counter-based splitmix64 stream keyed on the task label,
  so two runs of the same task back off identically (reproducible tests)
  while distinct tasks desynchronize;
- **broken-pool detection and re-dispatch of only the lost tasks** — when a
  worker dies (``os._exit``, OOM-kill, segfault) every in-flight future on
  that pool fails with :class:`~concurrent.futures.BrokenExecutor`; each
  affected task independently swaps in the replacement pool and re-dispatches
  itself, while tasks that already completed keep their results.  Losses do
  **not** spend the task's retry budget — a queued task lost to someone
  else's crash never failed — and are bounded instead by the separate,
  much larger ``max_pool_losses`` budget per task, which is also what
  catches a task whose worker dies on every attempt;
- **a structured attempt log** — every attempt lands in a bounded
  :class:`TaskAttempt` ring buffer with counters, surfaced by the result
  service at ``GET /metrics`` under ``"resilience"``.

A deadline covers only its own task's run: the monitor threads that
submit attempts are as many as the pool's workers, so an attempt never
waits in the pool's queue behind another task.  Shutting down with
``cancel_futures=True`` cancels the outer future of every task that had not
started, so no caller waits on a task that will never run.

Retries are safe here by construction: every workload this repository
submits is a pure function of its arguments (experiments derive all
randomness from their params/seed; shm kernel ranges draw from the
counter-based RNG stream), so a retried task returns **bit-identical**
results — the fault-free and the crash-riddled run produce the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.backend.base import campaign_uniform
from repro.core.exceptions import ChaosError, TaskTimeoutError

#: Default number of retries after the first attempt.
DEFAULT_RETRIES = 2

#: Default backoff base (seconds) and cap (seconds).
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0

#: Attempt-log ring size.
ATTEMPT_LOG_SIZE = 256

#: Task-raised exception types retried without recycling the pool (the task
#: failed, the workers are fine): chaos corruption only — a deterministic
#: application error would fail every attempt identically, so it fails
#: fast.  Transport failures (BrokenExecutor) and deadline overruns recycle
#: and retry regardless of this set.
RETRY_EXCEPTIONS: Tuple[type, ...] = (ChaosError,)

#: Broken-pool losses a single task may absorb before giving up.  Losses are
#: billed separately from ``retries``: when one worker dies, *every*
#: in-flight future on the pool fails at once, and a task that was merely
#: queued behind the crasher must not spend its failure budget on someone
#: else's fault.  (With N tasks fanned out up front, one crash each can cost
#: an innocent task up to N-1 collateral losses.)  The budget is also what
#: bounds a task that kills its worker on *every* attempt: it is
#: re-dispatched this many times, then fails with the transport error.
DEFAULT_MAX_POOL_LOSSES = 32


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt of one task, as recorded in the executor's ring buffer.

    Attributes:
        task: the task label (function name plus first string argument).
        attempt: 1-based attempt number.
        outcome: ``"ok"`` / ``"timeout"`` / ``"broken-pool"`` / ``"error"``.
        elapsed_seconds: wall time the attempt took.
        retry_delay_seconds: backoff slept before the *next* attempt
            (0.0 when the attempt succeeded or exhausted the budget).
        error: ``repr`` of the failure (``None`` on success).
    """

    task: str
    attempt: int
    outcome: str
    elapsed_seconds: float
    retry_delay_seconds: float
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "attempt": self.attempt,
            "outcome": self.outcome,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "retry_delay_seconds": round(self.retry_delay_seconds, 6),
            "error": self.error,
        }


def backoff_delay(
    label: str,
    attempt: int,
    *,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
) -> float:
    """Backoff before retrying ``label`` after failed attempt ``attempt``.

    Exponential in the attempt number, capped, scaled by a deterministic
    jitter factor in ``[0.5, 1.5)`` from the counter-based splitmix64
    stream keyed on the label — reproducible per task, decorrelated across
    tasks (no thundering-herd retry waves).
    """
    if base <= 0.0:
        return 0.0
    seed = int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )
    jitter = 0.5 + campaign_uniform(seed, attempt)
    return min(cap, base * (2.0 ** (attempt - 1))) * jitter


def _cancel_unstarted(outer: "Future[Any]", monitor: "Future[None]") -> None:
    """Cancel ``outer`` when its monitor was cancelled before it ran.

    ``shutdown(cancel_futures=True)`` cancels queued monitors, whose
    ``_drive`` then never resolves their outer futures.  Cancelling and
    notifying here makes ``result()`` raise :class:`CancelledError` and lets
    :func:`concurrent.futures.wait` return.
    """
    if monitor.cancelled() and outer.cancel():
        outer.set_running_or_notify_cancel()


def _default_factory(max_workers: Optional[int]) -> Callable[[], Executor]:
    def make() -> Executor:
        return ProcessPoolExecutor(max_workers=max_workers)

    return make


class ResilientExecutor(Executor):
    """An :class:`~concurrent.futures.Executor` that survives its pool.

    Args:
        max_workers: pool width for the default process-pool factory and
            the number of monitor threads, so at most this many attempts
            are in the inner pool at once.  A custom ``factory`` should
            build pools of this width.
        factory: zero-argument callable building a fresh inner executor;
            called once up front and again on every recycle.  Defaults to
            ``ProcessPoolExecutor(max_workers=...)``.
        deadline: per-attempt seconds before a task is declared hung and
            the pool recycled; ``None`` waits forever.  Hard enforcement
            (terminating the stuck worker) requires a process-pool factory;
            thread pools get the retry but the hung thread runs on.
        retries: attempts allowed *after* the first (0 = fail fast); only
            timeouts and :data:`RETRY_EXCEPTIONS` are retried.
        backoff_base: see :func:`backoff_delay` (capped at its default
            ``cap``).
        max_pool_losses: broken-pool losses one task may absorb before
            giving up.  Billed separately from ``retries`` — a lost task
            did not fail, its pool did (see module notes).

    The last :data:`ATTEMPT_LOG_SIZE` attempts are kept in :attr:`attempts`.
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        factory: Optional[Callable[[], Executor]] = None,
        deadline: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        max_pool_losses: int = DEFAULT_MAX_POOL_LOSSES,
    ) -> None:
        if deadline is not None and not (math.isfinite(deadline) and deadline > 0):
            raise ValueError(f"deadline must be positive and finite, got {deadline}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        if max_pool_losses < 1:
            raise ValueError(
                f"max_pool_losses must be positive, got {max_pool_losses}"
            )
        self._width = max_workers if max_workers is not None else os.cpu_count() or 1
        self._factory = factory if factory is not None else _default_factory(max_workers)
        self.deadline = deadline
        self.retries = retries
        self.backoff_base = backoff_base
        self.max_pool_losses = max_pool_losses
        self._lock = threading.Lock()
        self._pool: Executor = self._factory()
        self._generation = 0
        self._stopped = False
        # One monitor per worker: a monitor blocks while its attempt runs,
        # so the inner pool never queues an attempt behind another task and
        # a deadline only ever measures its own task's run.
        self._monitors = ThreadPoolExecutor(
            max_workers=self._width, thread_name_prefix="resilient"
        )
        self.attempts: Deque[TaskAttempt] = deque(maxlen=ATTEMPT_LOG_SIZE)
        self.tasks_submitted = 0
        self.tasks_succeeded = 0
        self.tasks_failed = 0
        self.retries_total = 0
        self.timeouts_total = 0
        self.pool_breaks = 0
        self.pool_recycles = 0
        self.losses_redispatched = 0

    # ---------------------------------------------------------------- pool

    @property
    def generation(self) -> int:
        """How many pools this executor has been through (0-based)."""
        with self._lock:
            return self._generation

    def _current_pool(self) -> Tuple[Executor, int]:
        with self._lock:
            if self._stopped:
                raise RuntimeError("cannot submit to a shut-down ResilientExecutor")
            return self._pool, self._generation

    def recycle(self) -> None:
        """Swap in a fresh pool unconditionally (e.g. after a source edit)."""
        self._recycle_from(self.generation, kill=False)

    def _recycle_from(self, generation: int, *, kill: bool) -> None:
        """Replace the pool *iff* it is still the one that failed.

        Concurrent failures on the same broken pool race here; the first
        caller swaps, the rest see the bumped generation and simply retry
        on the replacement — one recycle per breakage, not one per task.
        """
        with self._lock:
            if self._stopped or generation != self._generation:
                return
            old = self._pool
            self._pool = self._factory()
            self._generation += 1
            self.pool_recycles += 1
        self._dispose(old, kill=kill)

    @staticmethod
    def _dispose(pool: Executor, *, kill: bool) -> None:
        if not kill:
            # Graceful recycle (e.g. a source-edit refresh): let queued and
            # running tasks drain on the old pool; only *new* submissions go
            # to the replacement.
            pool.shutdown(wait=False)
            return
        # Snapshot the workers *before* shutdown(): ProcessPoolExecutor
        # drops its _processes reference as soon as shutdown() returns, and
        # a worker left untreated keeps running its hung task.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - pre-3.9 executors
            pool.shutdown(wait=False)
        # A hung worker ignores shutdown(); terminate it so the dead pool
        # cannot pin a core (process pools only — threads cannot be killed,
        # which is why deadline tests use processes).
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass

    # -------------------------------------------------------------- submit

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> "Future[Any]":
        """Schedule ``fn(*args, **kwargs)`` with the resilience policy.

        Returns an outer future that resolves with the first successful
        attempt's result, or with the final attempt's failure once the
        retry budget is exhausted.
        """
        label = getattr(fn, "__name__", None) or repr(fn)
        if args and isinstance(args[0], str):
            label = f"{label}:{args[0]}"
        outer: "Future[Any]" = Future()
        with self._lock:
            if self._stopped:
                raise RuntimeError("cannot submit to a shut-down ResilientExecutor")
            self.tasks_submitted += 1
        monitor = self._monitors.submit(self._drive, outer, label, fn, args, kwargs)
        monitor.add_done_callback(partial(_cancel_unstarted, outer))
        return outer

    def _drive(
        self,
        outer: "Future[Any]",
        label: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> None:
        if not outer.set_running_or_notify_cancel():
            return
        try:
            self._drive_attempts(outer, label, fn, args, kwargs)
        except BaseException as driver_error:  # noqa: BLE001
            # A failure of the *driver* (not the task) must still resolve the
            # outer future — a stranded future hangs its caller forever.
            if not outer.done():
                outer.set_exception(driver_error)

    def _drive_attempts(
        self,
        outer: "Future[Any]",
        label: str,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> None:
        attempt = 0
        failures = 0  # attempts the task itself burned (timeout / error)
        losses = 0  # attempts lost to pool breakage (billed separately)
        while True:
            attempt += 1
            started = time.monotonic()
            outcome = "ok"
            error: Optional[BaseException] = None
            recycle = False
            kill = False
            try:
                pool, generation = self._current_pool()
                inner = pool.submit(fn, *args, **kwargs)
            except (BrokenExecutor, RuntimeError) as submit_error:
                # The pool broke (or was recycled away) between lookup and
                # submit; treat exactly like an attempt lost to breakage.
                outcome, error, recycle = "broken-pool", submit_error, True
            else:
                try:
                    result = inner.result(timeout=self.deadline)
                except FutureTimeoutError:
                    inner.cancel()
                    outcome = "timeout"
                    error = TaskTimeoutError(
                        f"task {label!r} exceeded its {self.deadline}s deadline "
                        f"(attempt {attempt})"
                    )
                    recycle = kill = True
                except BrokenExecutor as broken:
                    outcome, error, recycle = "broken-pool", broken, True
                except CancelledError as cancelled:
                    # A concurrent kill-recycle (another task's timeout)
                    # cancelled this queued attempt; the replacement pool is
                    # already up — _recycle_from dedupes on generation — so
                    # simply retry there.
                    outcome, error, recycle = "broken-pool", cancelled, True
                except BaseException as task_error:  # noqa: BLE001 - reported via future
                    outcome, error = "error", task_error
                else:
                    self._record(label, attempt, "ok", time.monotonic() - started, 0.0)
                    with self._lock:
                        self.tasks_succeeded += 1
                    outer.set_result(result)
                    return
            elapsed = time.monotonic() - started
            with self._lock:
                if outcome == "timeout":
                    self.timeouts_total += 1
                elif outcome == "broken-pool":
                    self.pool_breaks += 1
            if recycle:
                self._recycle_from(generation, kill=kill)
            if outcome == "broken-pool":
                # A lost task did not fail — its pool did.  Re-dispatch on
                # the replacement without billing the retry budget, unless
                # this task keeps landing on dying pools (losses budget).
                losses += 1
                if losses <= self.max_pool_losses:
                    self._record(label, attempt, outcome, elapsed, 0.0, error)
                    with self._lock:
                        self.losses_redispatched += 1
                    continue
                self._record(label, attempt, outcome, elapsed, 0.0, error)
                with self._lock:
                    self.tasks_failed += 1
                outer.set_exception(error)
                return
            failures += 1
            retryable = outcome == "timeout" or isinstance(error, RETRY_EXCEPTIONS)
            if not retryable or failures > self.retries:
                self._record(label, attempt, outcome, elapsed, 0.0, error)
                with self._lock:
                    self.tasks_failed += 1
                outer.set_exception(error)
                return
            delay = backoff_delay(label, failures, base=self.backoff_base)
            self._record(label, attempt, outcome, elapsed, delay, error)
            with self._lock:
                self.retries_total += 1
            if delay > 0.0:
                time.sleep(delay)

    def _record(
        self,
        label: str,
        attempt: int,
        outcome: str,
        elapsed: float,
        delay: float,
        error: Optional[BaseException] = None,
    ) -> None:
        record = TaskAttempt(
            task=label,
            attempt=attempt,
            outcome=outcome,
            elapsed_seconds=elapsed,
            retry_delay_seconds=delay,
            error=None if error is None else f"{type(error).__name__}: {error}",
        )
        with self._lock:
            self.attempts.append(record)

    # --------------------------------------------------------------- stats

    def snapshot(self, *, attempt_limit: int = 20) -> Dict[str, Any]:
        """The JSON document ``GET /metrics`` embeds under ``"resilience"``."""
        with self._lock:
            attempts: List[TaskAttempt] = list(self.attempts)[-attempt_limit:]
            return {
                "deadline_seconds": self.deadline,
                "retries": self.retries,
                "pool_generation": self._generation,
                "tasks_submitted": self.tasks_submitted,
                "tasks_succeeded": self.tasks_succeeded,
                "tasks_failed": self.tasks_failed,
                "retries_total": self.retries_total,
                "timeouts_total": self.timeouts_total,
                "pool_breaks": self.pool_breaks,
                "pool_recycles": self.pool_recycles,
                "losses_redispatched": self.losses_redispatched,
                "recent_attempts": [attempt.to_dict() for attempt in attempts],
            }

    # ------------------------------------------------------------ shutdown

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop accepting tasks; release the monitor and worker pools."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            pool = self._pool
        self._monitors.shutdown(wait=wait, cancel_futures=cancel_futures)
        try:
            pool.shutdown(wait=wait, cancel_futures=cancel_futures)
        except TypeError:  # pragma: no cover - pre-3.9 executors
            pool.shutdown(wait=wait)
