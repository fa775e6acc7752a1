"""Counters the result service exposes at ``GET /metrics``.

One instance lives on the server and is only ever mutated from the event
loop thread, so plain integer fields are race-free without locks.  The
snapshot is a flat JSON document so scrapers (and ``perfbench``'s serve
workloads) can diff two snapshots without walking a schema.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.backend.timing import peak_rss_kb


@dataclass
class ServiceMetrics:
    """Request, cache and build counters for one server process.

    Attributes:
        requests_total: requests parsed successfully (any route, any status).
        responses_by_status: response count per HTTP status code.
        cache_hits: results served from the content-addressed cache (from
            disk or from the in-memory body cache).
        memory_hits: the subset of ``cache_hits`` answered from the app's
            in-memory body cache without touching disk at all.
        cache_misses: requests that required (or joined) a computation.
        not_modified: conditional requests answered ``304`` from the key alone.
        builds: experiment computations actually submitted to the pool —
            the single-flight invariant is ``builds <= cache_misses``.
        build_failures: computations that raised instead of returning.
        build_timeouts: builds abandoned at the service's per-request
            deadline (a subset of ``build_failures``).
        builds_rejected: builds refused outright by the open circuit
            breaker (answered ``503`` without touching the pool).
        single_flight_joined: requests that piggybacked on an in-flight build
            instead of starting their own.
        in_flight_requests: requests currently being handled.
        in_flight_builds: computations currently in the process pool.
        fingerprint_refreshes: source edits the refresh loop picked up.
        jobs_submitted: jobs accepted through ``POST /jobs``.
        jobs_completed: jobs whose every task finished successfully.
        jobs_failed: jobs that ended with at least one failed task.
        bulk_results_served: individual results delivered through the bulk
            ``/results`` endpoint (JSON document entries plus NDJSON lines).
        cache_admin_ops: cache-administration requests handled
            (``/cache/stats|prune|invalidate``).
        kernel_counters: per-kernel ``{calls, seconds, trials}`` accumulated
            from the volatile section of every result this server built
            (builds run in pool workers; the counters ride back on the
            result document).  Cache hits contribute nothing — the section
            measures compute actually spent, so fused-vs-looped kernel wins
            are visible to scrapers.
        peak_build_rss_kb: the largest worker peak resident set size (KiB)
            observed across every build this server completed — it rides
            back on the same volatile section as the kernel counters.  The
            snapshot pairs it with ``peak_rss_kb``, the serving process's own
            high-water mark, so scrapers can tell build memory pressure from
            server memory pressure at a glance.
    """

    started_at: float = field(default_factory=time.time)
    requests_total: int = 0
    responses_by_status: Dict[int, int] = field(default_factory=dict)
    cache_hits: int = 0
    memory_hits: int = 0
    cache_misses: int = 0
    not_modified: int = 0
    builds: int = 0
    build_failures: int = 0
    build_timeouts: int = 0
    builds_rejected: int = 0
    single_flight_joined: int = 0
    in_flight_requests: int = 0
    in_flight_builds: int = 0
    fingerprint_refreshes: int = 0
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    bulk_results_served: int = 0
    cache_admin_ops: int = 0
    kernel_counters: Dict[str, Dict[str, float]] = field(default_factory=dict)
    peak_build_rss_kb: int = 0
    _sections: Dict[str, Callable[[], Dict[str, Any]]] = field(
        default_factory=dict, repr=False
    )

    def count_response(self, status: int) -> None:
        """Record one response with this status code."""
        self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1

    def record_kernels(self, counters: "Dict[str, Dict[str, float]]") -> None:
        """Accumulate one build's per-kernel counters into the totals."""
        for kernel, counter in counters.items():
            total = self.kernel_counters.setdefault(
                kernel, {"calls": 0, "seconds": 0.0, "trials": 0}
            )
            total["calls"] += int(counter.get("calls", 0))
            total["seconds"] += float(counter.get("seconds", 0.0))
            total["trials"] += int(counter.get("trials", 0))

    def record_build_rss(self, peak_kb: int) -> None:
        """Fold one build's worker peak RSS into the high-water mark."""
        self.peak_build_rss_kb = max(self.peak_build_rss_kb, int(peak_kb))

    def attach_section(
        self, name: str, provider: Callable[[], Dict[str, Any]]
    ) -> None:
        """Embed ``provider()`` under ``name`` in every future snapshot.

        How subsystems with their own state (the resilient executor, the
        circuit breaker) surface in ``GET /metrics`` without this module
        importing them.
        """
        self._sections[name] = provider

    def snapshot(self) -> Dict[str, Any]:
        """The flat JSON document ``GET /metrics`` serves."""
        document: Dict[str, Any] = {
            "uptime_seconds": max(0.0, time.time() - self.started_at),
            "requests_total": self.requests_total,
            "responses_by_status": {
                str(status): count
                for status, count in sorted(self.responses_by_status.items())
            },
            "cache_hits": self.cache_hits,
            "memory_hits": self.memory_hits,
            "cache_misses": self.cache_misses,
            "not_modified": self.not_modified,
            "builds": self.builds,
            "build_failures": self.build_failures,
            "build_timeouts": self.build_timeouts,
            "builds_rejected": self.builds_rejected,
            "single_flight_joined": self.single_flight_joined,
            "in_flight_requests": self.in_flight_requests,
            "in_flight_builds": self.in_flight_builds,
            "fingerprint_refreshes": self.fingerprint_refreshes,
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "bulk_results_served": self.bulk_results_served,
            "cache_admin_ops": self.cache_admin_ops,
            "kernels": {
                kernel: dict(counter)
                for kernel, counter in sorted(self.kernel_counters.items())
            },
            "peak_build_rss_kb": self.peak_build_rss_kb,
            "peak_rss_kb": peak_rss_kb(),
        }
        for name, provider in self._sections.items():
            document[name] = provider()
        return document
