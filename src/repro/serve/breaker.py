"""Circuit breaker for the result service's build path.

When experiment builds start failing repeatedly — a poisoned worker pool, a
broken source edit, resource exhaustion — continuing to submit every miss to
the pool makes things worse: each doomed build occupies a worker, queues pile
up, and every client waits the full failure latency just to receive a 500.
The :class:`CircuitBreaker` converts that failure mode into fast, explicit
degradation:

- **closed** (healthy): builds flow; consecutive failures are counted and a
  success resets the count;
- **open**: after ``failure_threshold`` consecutive failures new builds are
  rejected immediately — the service answers ``503`` with a ``Retry-After``
  header and ``/healthz`` reports ``degraded`` — while cache hits keep being
  served untouched;
- **half-open**: once ``reset_timeout`` elapses, exactly one probe build is
  let through; success closes the breaker (full recovery, no restart
  needed), failure re-opens it for another ``reset_timeout``.

The clock is injectable so tests drive the open → half-open → closed walk
deterministically without sleeping.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict

#: Consecutive build failures that open the breaker.
DEFAULT_FAILURE_THRESHOLD = 5

#: Seconds an open breaker waits before letting a probe through.
DEFAULT_RESET_TIMEOUT = 30.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with a single half-open probe.

    Single-threaded by design: the result service only calls it from the
    event-loop thread, so no locking is needed (same contract as
    :class:`~repro.serve.metrics.ServiceMetrics`).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        reset_timeout: float = DEFAULT_RESET_TIMEOUT,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        if not (math.isfinite(reset_timeout) and reset_timeout > 0):
            raise ValueError(
                f"reset timeout must be positive and finite, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.times_opened = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half-open`` (advances open → half-open)."""
        if self._state == OPEN and self._remaining() <= 0.0:
            self._state = HALF_OPEN
            self._probe_in_flight = False
        return self._state

    def _remaining(self) -> float:
        return self._opened_at + self.reset_timeout - self._clock()

    def allow_build(self) -> bool:
        """Whether a new build may start now.

        In half-open state exactly one caller gets ``True`` (the probe);
        everyone else is rejected until the probe reports back.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def record_success(self) -> None:
        """A build finished; close the breaker and forget past failures."""
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probe_in_flight = False

    def record_failure(self) -> None:
        """A build failed; open on threshold (immediately for a failed probe)."""
        if self.state == HALF_OPEN:
            # The probe failed: the backend is still sick, re-open fully.
            self._trip()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = self.failure_threshold
        self._probe_in_flight = False
        self.times_opened += 1

    def retry_after(self) -> float:
        """Seconds until the next build could be allowed (0 when closed)."""
        if self.state == CLOSED:
            return 0.0
        return max(0.0, self._remaining())

    def retry_after_header(self) -> str:
        """``Retry-After`` value: integral seconds, at least 1."""
        return str(max(1, math.ceil(self.retry_after())))

    def snapshot(self) -> Dict[str, Any]:
        """The JSON document ``GET /metrics`` embeds under ``"breaker"``."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "reset_timeout_seconds": self.reset_timeout,
            "retry_after_seconds": round(self.retry_after(), 3),
            "times_opened": self.times_opened,
        }
