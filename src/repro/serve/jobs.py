"""In-memory job store backing the write-path API (``POST /jobs``).

A **job** is one accepted submission: a list of validated tasks (each a
:class:`~repro.serve.service.PreparedRequest`) that the app runs through the
result service's single-flight gate on the shared resilient executor.  The
store itself is transport-free bookkeeping:

- jobs walk ``queued → running → done | failed`` and record wall-clock
  timestamps per transition;
- history is **bounded**: once the store holds more than ``history_limit``
  jobs, the oldest *finished* jobs are evicted (an active job is never
  evicted, so a burst of submissions can briefly exceed the limit rather
  than lose live state);
- :meth:`JobStore.counts` feeds the ``jobs`` section of ``GET /metrics``.

Everything here is only touched from the event-loop thread (the same
contract as :class:`~repro.serve.metrics.ServiceMetrics`), so plain fields
are race-free without locks.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro.serve.service import PreparedRequest

#: Finished jobs kept for polling after completion.
DEFAULT_JOB_HISTORY = 256

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Every state a job (or task) can report, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)


def _experiment_path(prepared: PreparedRequest) -> str:
    """The GET route serving this task's result once it is cached."""
    query: List[Tuple[str, Any]] = [
        (name, value)
        for name, value in sorted(prepared.params_doc.items())
        if value is not None
    ]
    suffix = f"?{urlencode(query)}" if query else ""
    return f"/experiments/{prepared.spec.experiment_id}{suffix}"


@dataclass
class JobTask:
    """One experiment run inside a job."""

    prepared: PreparedRequest
    status: str = QUEUED
    state: Optional[str] = None  # "hit" / "miss" once finished
    error: Optional[str] = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "experiment_id": self.prepared.spec.experiment_id,
            "params": dict(self.prepared.params_doc),
            "status": self.status,
            "cache": self.state,
            "key": self.prepared.key,
            "path": _experiment_path(self.prepared),
            "error": self.error,
        }


@dataclass
class Job:
    """One accepted submission and its lifecycle record."""

    job_id: str
    tasks: List[JobTask]
    created_at: float
    status: str = QUEUED
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED)

    def snapshot(self, *, include_tasks: bool = True) -> Dict[str, Any]:
        """The JSON document ``GET /jobs/{id}`` serves."""
        document: Dict[str, Any] = {
            "id": self.job_id,
            "status": self.status,
            "tasks_total": len(self.tasks),
            "tasks_done": sum(1 for task in self.tasks if task.status == DONE),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "path": f"/jobs/{self.job_id}",
            "result_path": f"/jobs/{self.job_id}/result",
        }
        if include_tasks:
            document["tasks"] = [task.snapshot() for task in self.tasks]
        return document


class JobStore:
    """Bounded-history registry of jobs, keyed by id in submission order."""

    def __init__(
        self,
        *,
        history_limit: int = DEFAULT_JOB_HISTORY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if history_limit < 1:
            raise ValueError(f"history limit must be >= 1, got {history_limit}")
        self.history_limit = history_limit
        self._clock = clock
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._sequence = itertools.count(1)
        self.evicted = 0

    def create(self, tasks: List[JobTask]) -> Job:
        """Register a new queued job and enforce the history bound."""
        job = Job(
            job_id=f"j{next(self._sequence):06d}",
            tasks=tasks,
            created_at=self._clock(),
        )
        self._jobs[job.job_id] = job
        self._evict()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every retained job, oldest first."""
        return list(self._jobs.values())

    def mark_running(self, job: Job) -> None:
        job.status = RUNNING
        job.started_at = self._clock()

    def mark_done(self, job: Job) -> None:
        job.status = DONE
        job.finished_at = self._clock()

    def mark_failed(self, job: Job, error: str) -> None:
        job.status = FAILED
        job.error = error
        job.finished_at = self._clock()

    def _evict(self) -> None:
        """Drop the oldest finished jobs beyond the history limit.

        Active (queued/running) jobs are skipped — their asyncio task still
        writes into them, and a client holding their id must be able to poll
        to completion.  If every retained job is active the store may exceed
        the limit; it shrinks back as they finish and new jobs arrive.
        """
        if len(self._jobs) <= self.history_limit:
            return
        excess = len(self._jobs) - self.history_limit
        # Stop at the ``excess``-th finished job: past the limit each create
        # evicts about one, so the scan reads only the oldest few jobs.
        doomed = list(
            itertools.islice(
                (job_id for job_id, job in self._jobs.items() if job.finished),
                excess,
            )
        )
        for job_id in doomed:
            del self._jobs[job_id]
            self.evicted += 1

    def counts(self) -> Dict[str, Any]:
        """The ``jobs`` section of ``GET /metrics``."""
        by_state = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            by_state[job.status] += 1
        return {
            "retained": len(self._jobs),
            "history_limit": self.history_limit,
            "evicted": self.evicted,
            **by_state,
        }
