"""Tests for the fault-tolerant executor.

Thread-backed factories keep the policy tests (retries, backoff, attempt
log) fast; the process-pool tests exercise the behaviours only real worker
processes have — deadline kills and broken-pool recovery after a hard
``os._exit``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor, wait

import pytest

from repro.backend.resilient import (
    ResilientExecutor,
    backoff_delay,
)
from repro.core.exceptions import ChaosError, TaskTimeoutError


# Pool tasks must be module-level so process pools can pickle them.
def _double(value):
    return value * 2


def _echo(value):
    return value


def _raise_value_error():
    raise ValueError("deterministic application bug")


def _chaos_until_marker(marker, value):
    """Raise ChaosError on the first call (per marker), then succeed."""
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise ChaosError("injected")
    return value


def _always_chaos():
    raise ChaosError("always")


def _exit_until_marker(marker):
    """Die like a killed worker on the first call (per marker), then succeed."""
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(3)
    return "recovered"


def _always_exit():
    os._exit(3)


def _sleep_until_marker(marker, seconds):
    """Hang on the first call (per marker), then return promptly."""
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(seconds)
    return "fast"


def _sleep_forever(seconds):
    time.sleep(seconds)
    return "slept"


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _thread_pool():
    return ThreadPoolExecutor(max_workers=2)


def _one_thread_pool():
    return ThreadPoolExecutor(max_workers=1)


class TestBackoffDelay:
    def test_deterministic_per_label_and_attempt(self):
        assert backoff_delay("t", 1) == backoff_delay("t", 1)
        assert backoff_delay("t", 1) != backoff_delay("u", 1)

    def test_exponential_and_capped(self):
        # Jitter is in [0.5, 1.5), so the bounds below are safe.
        assert backoff_delay("t", 1, base=0.1, cap=10.0) < 0.15
        assert backoff_delay("t", 10, base=0.1, cap=2.0) <= 3.0

    def test_zero_base_disables_backoff(self):
        assert backoff_delay("t", 3, base=0.0) == 0.0


class TestPolicy:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ResilientExecutor(deadline=0.0)
        with pytest.raises(ValueError):
            ResilientExecutor(retries=-1)
        for deadline in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ResilientExecutor(factory=_thread_pool, deadline=deadline)

    def test_passthrough_success(self):
        pool = ResilientExecutor(factory=_thread_pool, backoff_base=0.0)
        try:
            assert pool.submit(_double, 21).result(timeout=30) == 42
            assert pool.tasks_succeeded == 1
            assert pool.tasks_failed == 0
            (attempt,) = list(pool.attempts)
            assert attempt.outcome == "ok"
            assert attempt.attempt == 1
        finally:
            pool.shutdown()

    def test_label_includes_first_string_argument(self):
        pool = ResilientExecutor(factory=_thread_pool, backoff_base=0.0)
        try:
            assert pool.submit(_echo, "figure1").result(timeout=30) == "figure1"
            (attempt,) = list(pool.attempts)
            assert attempt.task == "_echo:figure1"
        finally:
            pool.shutdown()

    def test_deterministic_error_fails_fast(self):
        pool = ResilientExecutor(factory=_thread_pool, retries=5, backoff_base=0.0)
        try:
            with pytest.raises(ValueError):
                pool.submit(_raise_value_error).result(timeout=30)
            assert pool.tasks_failed == 1
            assert pool.retries_total == 0
            (attempt,) = list(pool.attempts)
            assert attempt.outcome == "error"
            assert "ValueError" in attempt.error
        finally:
            pool.shutdown()

    def test_chaos_error_is_retried(self, tmp_path):
        marker = str(tmp_path / "marker")
        pool = ResilientExecutor(factory=_thread_pool, retries=2, backoff_base=0.0)
        try:
            future = pool.submit(_chaos_until_marker, marker, "ok")
            assert future.result(timeout=30) == "ok"
            assert pool.retries_total == 1
            assert pool.tasks_succeeded == 1
            outcomes = [attempt.outcome for attempt in pool.attempts]
            assert outcomes == ["error", "ok"]
        finally:
            pool.shutdown()

    def test_retry_budget_is_exhausted(self):
        pool = ResilientExecutor(factory=_thread_pool, retries=1, backoff_base=0.0)
        try:
            with pytest.raises(ChaosError):
                pool.submit(_always_chaos).result(timeout=30)
            assert pool.tasks_failed == 1
            assert pool.retries_total == 1
            assert [attempt.attempt for attempt in pool.attempts] == [1, 2]
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_is_rejected(self):
        pool = ResilientExecutor(factory=_thread_pool)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(_double, 1)
        # Shutting down twice is a no-op, not an error.
        pool.shutdown()

    def test_recycle_swaps_the_inner_pool(self):
        created = []

        def factory():
            created.append(object())
            return ThreadPoolExecutor(max_workers=1)

        pool = ResilientExecutor(factory=factory, backoff_base=0.0)
        try:
            assert pool.generation == 0
            pool.recycle()
            assert pool.generation == 1
            assert len(created) == 2
            assert pool.pool_recycles == 1
            assert pool.submit(_double, 2).result(timeout=30) == 4
        finally:
            pool.shutdown()

    def test_snapshot_shape(self):
        pool = ResilientExecutor(factory=_thread_pool, deadline=9.0, retries=3)
        try:
            pool.submit(_double, 1).result(timeout=30)
            snapshot = pool.snapshot()
            assert snapshot["deadline_seconds"] == 9.0
            assert snapshot["retries"] == 3
            assert snapshot["pool_generation"] == 0
            assert snapshot["tasks_submitted"] == 1
            assert snapshot["tasks_succeeded"] == 1
            (attempt,) = snapshot["recent_attempts"]
            assert attempt["outcome"] == "ok"
            assert attempt["error"] is None
        finally:
            pool.shutdown()


class TestQueuedTasks:
    """More tasks than workers: the queued ones neither time out nor hang."""

    def test_deadline_covers_only_the_task_run(self):
        """Each task runs well inside its deadline; waiting behind the
        others must not count against it."""
        pool = ResilientExecutor(
            max_workers=1, factory=_one_thread_pool, deadline=0.7, retries=0
        )
        try:
            futures = [pool.submit(_sleep_then_return, 0.3, index) for index in range(3)]
            assert [future.result(timeout=30) for future in futures] == [0, 1, 2]
            assert pool.timeouts_total == 0
            assert pool.generation == 0
        finally:
            pool.shutdown()

    def test_cancelling_shutdown_resolves_every_outer_future(self):
        """Tasks that never started are cancelled, not left pending."""
        pool = ResilientExecutor(
            max_workers=1, factory=_one_thread_pool, backoff_base=0.0
        )
        futures = [pool.submit(_sleep_then_return, 0.2, index) for index in range(8)]
        time.sleep(0.05)
        pool.shutdown(wait=False, cancel_futures=True)
        _, pending = wait(futures, timeout=10)
        assert not pending
        cancelled = [future for future in futures if future.cancelled()]
        assert cancelled
        for future in cancelled:
            with pytest.raises(CancelledError):
                future.result(timeout=0)
        for index, future in enumerate(futures):
            if not future.cancelled():
                assert future.result(timeout=0) == index


class TestProcessPoolFaults:
    def test_broken_pool_is_recycled_and_the_task_redispatched(self, tmp_path):
        marker = str(tmp_path / "marker")
        pool = ResilientExecutor(max_workers=1, retries=2, backoff_base=0.0)
        try:
            future = pool.submit(_exit_until_marker, marker)
            assert future.result(timeout=120) == "recovered"
            assert pool.pool_breaks >= 1
            assert pool.pool_recycles >= 1
            assert pool.generation >= 1
            assert pool.tasks_succeeded == 1
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def test_pool_losses_do_not_spend_the_retry_budget(self, tmp_path):
        """A crash-killed worker is re-dispatched even with ``retries=0``:
        the task never failed, its pool did."""
        marker = str(tmp_path / "marker")
        pool = ResilientExecutor(max_workers=1, retries=0, backoff_base=0.0)
        try:
            future = pool.submit(_exit_until_marker, marker)
            assert future.result(timeout=120) == "recovered"
            assert pool.losses_redispatched >= 1
            assert pool.retries_total == 0  # the failure budget is untouched
            assert pool.tasks_succeeded == 1
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def test_a_task_that_always_kills_its_worker_eventually_fails(self):
        """The loss budget bounds a worker-killer: after ``max_pool_losses``
        re-dispatches each breaking a fresh pool, the task fails."""
        pool = ResilientExecutor(
            max_workers=1, retries=3, backoff_base=0.0, max_pool_losses=2
        )
        try:
            future = pool.submit(_always_exit)
            with pytest.raises(Exception):
                future.result(timeout=120)
            assert pool.tasks_failed == 1
            assert pool.pool_breaks == 3  # budget 2 allows two re-dispatches
            assert pool.losses_redispatched == 2
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def test_loss_budget_validation(self):
        with pytest.raises(ValueError):
            ResilientExecutor(max_pool_losses=0)

    def test_completed_results_survive_a_later_breakage(self, tmp_path):
        marker = str(tmp_path / "marker")
        pool = ResilientExecutor(max_workers=1, retries=2, backoff_base=0.0)
        try:
            first = pool.submit(_double, 4)
            assert first.result(timeout=120) == 8
            second = pool.submit(_exit_until_marker, marker)
            assert second.result(timeout=120) == "recovered"
            assert first.result() == 8
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def test_deadline_times_out_and_kills_the_hung_worker(self):
        pool = ResilientExecutor(max_workers=1, deadline=0.5, retries=0)
        try:
            future = pool.submit(_sleep_forever, 120.0)
            with pytest.raises(TaskTimeoutError) as excinfo:
                future.result(timeout=120)
            assert "0.5s deadline" in str(excinfo.value)
            assert pool.timeouts_total == 1
            assert pool.generation == 1  # the hung pool was recycled
            assert pool.tasks_failed == 1
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def test_timeout_then_retry_succeeds_on_the_fresh_pool(self, tmp_path):
        marker = str(tmp_path / "marker")
        pool = ResilientExecutor(
            max_workers=1, deadline=0.5, retries=1, backoff_base=0.0
        )
        try:
            future = pool.submit(_sleep_until_marker, marker, 120.0)
            assert future.result(timeout=120) == "fast"
            assert pool.timeouts_total == 1
            assert pool.retries_total == 1
            assert pool.tasks_succeeded == 1
            outcomes = [attempt.outcome for attempt in pool.attempts]
            assert outcomes == ["timeout", "ok"]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
