"""Process-wide per-kernel timing counters.

Every hot-path kernel call in the fault engine wraps itself in
:func:`timed_kernel`, accumulating (calls, seconds, trials processed) per
kernel name into the module-global :data:`KERNEL_TIMINGS`.  The orchestrator
snapshots the registry around each experiment build and attaches the delta to
the result's volatile section, and the serve layer aggregates those deltas
into ``/metrics`` — so fused-vs-looped kernel wins are observable in
production, not just in benchmarks.

Counters are volatile observability data: they never enter canonical result
documents, golden snapshots, or cache keys.
"""

from __future__ import annotations

import resource
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator


def peak_rss_kb() -> int:
    """This process's lifetime peak resident set size, in KiB.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalised here so
    callers never branch on platform.  The value is a lifetime high-water mark
    — it only ever grows — so bounded-memory claims must be gated in a process
    that runs *only* the workload under test (CI's memory ceilings run one
    ``ecosystem_scale`` build per fresh process that way), while the
    orchestrator attaches it to result volatile sections as a per-worker
    observability signal.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return int(peak)

#: One kernel's accumulated counters as a plain JSON-safe dict.
KernelCounter = Dict[str, float]


class KernelTimings:
    """Thread-safe kernel-name → (calls, seconds, trials) accumulator."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, float]] = {}

    def record(self, kernel: str, *, seconds: float, trials: int) -> None:
        """Add one kernel invocation to the counters."""
        with self._lock:
            counter = self._counters.setdefault(
                kernel, {"calls": 0, "seconds": 0.0, "trials": 0}
            )
            counter["calls"] += 1
            counter["seconds"] += float(seconds)
            counter["trials"] += int(trials)

    def snapshot(self) -> Dict[str, KernelCounter]:
        """A deep copy of the current counters."""
        with self._lock:
            return {name: dict(counter) for name, counter in self._counters.items()}

    def delta_since(
        self, before: Dict[str, KernelCounter]
    ) -> Dict[str, KernelCounter]:
        """Counters accumulated since ``before`` (a prior :meth:`snapshot`).

        Kernels with no new calls are omitted, so an experiment that never
        touched the backends reports an empty delta.
        """
        delta: Dict[str, KernelCounter] = {}
        for name, counter in self.snapshot().items():
            previous = before.get(name, {})
            calls = counter["calls"] - previous.get("calls", 0)
            if calls <= 0:
                continue
            delta[name] = {
                "calls": calls,
                "seconds": counter["seconds"] - previous.get("seconds", 0.0),
                "trials": counter["trials"] - previous.get("trials", 0),
            }
        return delta

    def reset(self) -> None:
        """Drop all counters (tests)."""
        with self._lock:
            self._counters.clear()


#: The process-wide registry every kernel call site records into.
KERNEL_TIMINGS = KernelTimings()


@contextmanager
def timed_kernel(kernel: str, *, trials: int) -> Iterator[None]:
    """Time one kernel call into :data:`KERNEL_TIMINGS`.

    ``trials`` is the work metric, not wall time: for grid kernels it is
    point-trials (trials × grid points), so throughput comparisons between
    fused and looped paths stay apples-to-apples.
    """
    started = time.perf_counter()
    try:
        yield
    finally:
        KERNEL_TIMINGS.record(
            kernel, seconds=time.perf_counter() - started, trials=trials
        )
