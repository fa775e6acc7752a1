"""Async HTTP result service over the content-addressed experiment cache.

A dependency-free asyncio server (stdlib streams, no framework) that serves
:class:`~repro.experiments.orchestrator.ExperimentResult` JSON.

The **read plane**:

- ``GET /experiments`` — registry listing with tags and params schema;
- ``GET /experiments/{id}?param=...`` — canonical result JSON, computed on
  miss on the server process's compute backend via the orchestrator seam on
  a bounded process pool, single-flighted across concurrent identical
  requests, with the cache key as a strong ``ETag`` (``If-None-Match``
  answers ``304`` without disk I/O);
- ``GET /healthz`` / ``GET /metrics`` — liveness and counters.

The **write plane** (job submission, bulk results, cache administration):

- ``POST /jobs`` — submit a selection (an experiment, a parameter grid, a
  list or a tag); jobs run through the same single-flight gate and
  resilient executor as reads, and live in a bounded-history
  :class:`~repro.serve.jobs.JobStore`.  With ``wait: true`` the answer is
  the finished snapshot, each task's cache state included, so a submission
  is also how a cache is warmed;
- ``GET /jobs`` / ``GET /jobs/{id}`` / ``GET /jobs/{id}/result`` — polling
  and result retrieval (single-task results are byte-identical to the
  corresponding ``GET /experiments/{id}`` body);
- ``GET|POST /results`` — a bulk results document, or an NDJSON stream
  (``format=ndjson``, chunked ``Transfer-Encoding``) for large sweeps;
- ``GET /cache/stats``, ``POST /cache/prune|invalidate`` — the admin
  plane over the :class:`~repro.experiments.orchestrator.ResultCache`.

Builds degrade gracefully: misses run on a
:class:`~repro.backend.resilient.ResilientExecutor` (deadlines,
bounded retries, pool recycling), a per-request build deadline answers
``504``, and a :class:`~repro.serve.breaker.CircuitBreaker` answers ``503``
with ``Retry-After`` after repeated build failures — cache hits keep being
served, job submissions are refused at the door while the breaker is open,
and one successful probe closes the breaker without a restart.

``repro.cli serve`` runs it.
"""

from repro.experiments.orchestrator import json_body
from repro.experiments.orchestrator.registry import MAX_JOB_TASKS
from repro.serve.app import (
    DEFAULT_BODY_CACHE_BYTES,
    ResultApp,
    error_response,
    ndjson_line,
)
from repro.serve.breaker import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_RESET_TIMEOUT,
    CircuitBreaker,
)
from repro.serve.http import (
    HttpRequest,
    HttpResponse,
    StreamingHttpResponse,
    etag_for,
    if_none_match_matches,
    read_request,
)
from repro.serve.jobs import DEFAULT_JOB_HISTORY, JOB_STATES, Job, JobStore, JobTask
from repro.serve.metrics import ServiceMetrics
from repro.serve.server import ResultServer, default_jobs
from repro.serve.service import PreparedRequest, ResultService

__all__ = [
    "CircuitBreaker",
    "DEFAULT_BODY_CACHE_BYTES",
    "DEFAULT_FAILURE_THRESHOLD",
    "DEFAULT_JOB_HISTORY",
    "DEFAULT_RESET_TIMEOUT",
    "HttpRequest",
    "HttpResponse",
    "JOB_STATES",
    "Job",
    "JobStore",
    "JobTask",
    "MAX_JOB_TASKS",
    "PreparedRequest",
    "ResultApp",
    "ResultServer",
    "ResultService",
    "ServiceMetrics",
    "StreamingHttpResponse",
    "default_jobs",
    "error_response",
    "etag_for",
    "if_none_match_matches",
    "json_body",
    "ndjson_line",
    "read_request",
]
