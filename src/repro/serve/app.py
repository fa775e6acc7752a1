"""Route dispatch: maps parsed HTTP requests to service calls.

The read plane (PR 4/6):

- ``GET /healthz`` — liveness probe;
- ``GET /metrics`` — the :class:`~repro.serve.metrics.ServiceMetrics` snapshot;
- ``GET /experiments`` — the registry listing with tags and params schema;
- ``GET /experiments/{id}?param=...`` — one experiment's
  canonical result JSON (byte-identical to the golden snapshots), computed
  on miss, with the cache key as a strong ``ETag`` so ``If-None-Match``
  round-trips answer ``304`` without touching disk.

The write plane (this module's second half):

- ``POST /jobs`` — submit a selection (an experiment, a parameter grid, a
  list or a tag) for asynchronous computation; ``GET /jobs`` /
  ``GET /jobs/{id}`` poll it and ``GET /jobs/{id}/result`` serves the
  finished document.  ``wait: true`` answers with the finished snapshot,
  whose tasks record their cache state: that is how a cache is warmed;
- ``GET|POST /results`` — a bulk results document over a selection, or an
  NDJSON stream (``format=ndjson``) for large sweeps;
- ``GET /cache/stats`` and ``POST /cache/prune|invalidate`` — the
  cache-administration plane over the content-addressed
  :class:`~repro.experiments.orchestrator.ResultCache`.

Both write routes decode their selection with the registry's one decoder,
:func:`~repro.experiments.orchestrator.registry.decode_selection`.

Every route goes through one table mapping path → allowed methods, so an
unsupported method is a uniform 405 with a correct ``Allow`` header, and
every error — routing, validation or a failed build — is translated into a
JSON ``{"error": {...}}`` body with the right status, never a raw traceback.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from collections import OrderedDict
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.exceptions import OrchestrationError, ServeError
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.result import (
    RESULT_SCHEMA_VERSION,
    json_body,
    reject_duplicate_ids,
)
from repro.serve.http import (
    HttpRequest,
    HttpResponse,
    StreamingHttpResponse,
    etag_for,
    if_none_match_matches,
)
from repro.serve.jobs import DONE, FAILED, Job, JobStore, JobTask
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import PreparedRequest, ResultService

#: Prefix of the per-experiment result route.
EXPERIMENTS_PREFIX = "/experiments/"

#: Prefix of the per-job routes.
JOBS_PREFIX = "/jobs/"

#: Total bytes of encoded response bodies kept in memory, keyed by cache
#: key.  Keys are content-addressed (code + params), so an entry
#: can never go stale — the bound caps *memory*, and it is a byte bound
#: rather than an entry count because the bulk endpoints make individual
#: bodies arbitrarily large (256 big sweep documents is an OOM, 256 small
#: ones is nothing).
DEFAULT_BODY_CACHE_BYTES = 32 * 1024 * 1024


def ndjson_line(document: Any) -> bytes:
    """One NDJSON frame: compact sorted-key JSON plus the newline."""
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    ).encode("utf-8")


def error_response(
    status: int,
    message: str,
    *,
    headers: Sequence[Tuple[str, str]] = (),
) -> HttpResponse:
    """A JSON error response for ``status`` (plus e.g. ``Retry-After``)."""
    return HttpResponse(
        status=status,
        body=json_body({"error": {"status": status, "message": message}}),
        headers=tuple(headers),
    )


class ResultApp:
    """The request handler bridging HTTP requests to the result service."""

    def __init__(
        self,
        service: ResultService,
        metrics: Optional[ServiceMetrics] = None,
        *,
        body_cache_bytes: int = DEFAULT_BODY_CACHE_BYTES,
        jobs: Optional[JobStore] = None,
        refresh: Callable[[], Awaitable[bool]],
    ) -> None:
        """Args:
        service: the transport-free result service.
        metrics: shared counters; the service's instance by default.
        body_cache_bytes: total encoded-body bytes kept in the in-memory
            LRU (one oversized body is served but never cached).
        jobs: the job store backing ``POST /jobs``; a default-configured
            one when ``None``.
        refresh: awaitable forcing a fingerprint refresh (the server's
            ``refresh_now``, which also recycles the process pool).
        """
        self.service = service
        self.metrics = metrics if metrics is not None else service.metrics
        self.body_cache_bytes = body_cache_bytes
        self.jobs = jobs if jobs is not None else JobStore()
        self._refresh = refresh
        self._body_cache: "OrderedDict[str, bytes]" = OrderedDict()
        self._body_cache_total = 0
        self._job_runs: "set[asyncio.Task[None]]" = set()
        # One table owns routing: path → {method: handler}.  A method miss
        # is a uniform 405 through ServeError with the path's real Allow
        # set — never a hand-rolled response that drifts from the error
        # shape as routes are added.
        self._routes: Dict[str, Dict[str, Callable[..., Awaitable[object]]]] = {
            "/healthz": {"GET": self._healthz},
            "/metrics": {"GET": self._metrics_snapshot},
            "/experiments": {"GET": self._experiments_index},
            "/jobs": {"GET": self._jobs_index, "POST": self._jobs_submit},
            "/results": {"GET": self._results, "POST": self._results},
            "/cache/stats": {"GET": self._cache_stats},
            "/cache/prune": {"POST": self._cache_prune},
            "/cache/invalidate": {"POST": self._cache_invalidate},
        }

    # ------------------------------------------------------------ dispatch

    async def handle(
        self, request: HttpRequest
    ) -> Union[HttpResponse, StreamingHttpResponse]:
        """Dispatch one request; never raises."""
        self.metrics.requests_total += 1
        self.metrics.in_flight_requests += 1
        try:
            response = await self._dispatch(request)
        except ServeError as error:
            response = error_response(error.status, str(error), headers=error.headers)
        except Exception as error:  # a failed build must not kill the connection
            print(
                f"error: request {request.method} {request.target} failed: {error}",
                file=sys.stderr,
            )
            response = error_response(500, f"{type(error).__name__}: {error}")
        finally:
            self.metrics.in_flight_requests -= 1
        self.metrics.count_response(response.status)
        return response

    async def _dispatch(
        self, request: HttpRequest
    ) -> Union[HttpResponse, StreamingHttpResponse]:
        path = request.path.rstrip("/") or "/"
        handlers, args = self._resolve_route(path)
        if handlers is None:
            raise ServeError(404, f"no route for {request.path!r}")
        handler = handlers.get(request.method)
        if handler is None:
            raise ServeError(
                405,
                f"method {request.method} not allowed for {path} "
                f"(allowed: {', '.join(sorted(handlers))})",
                headers=(("Allow", ", ".join(sorted(handlers))),),
            )
        return await handler(request, *args)  # type: ignore[return-value]

    def _resolve_route(
        self, path: str
    ) -> Tuple[Optional[Dict[str, Callable[..., Awaitable[object]]]], Tuple[str, ...]]:
        exact = self._routes.get(path)
        if exact is not None:
            return exact, ()
        if path.startswith(EXPERIMENTS_PREFIX):
            experiment_id = path[len(EXPERIMENTS_PREFIX):]
            if experiment_id and "/" not in experiment_id:
                return {"GET": self._experiment}, (experiment_id,)
        if path.startswith(JOBS_PREFIX):
            rest = path[len(JOBS_PREFIX):]
            if rest and "/" not in rest:
                return {"GET": self._job_status}, (rest,)
            job_id, _, tail = rest.partition("/")
            if job_id and tail == "result":
                return {"GET": self._job_result}, (job_id,)
        return None, ()

    # ---------------------------------------------------------- read plane

    async def _healthz(self, request: HttpRequest) -> HttpResponse:
        # Always 200 — probes ask "is the process alive"; a degraded
        # body (breaker open, builds rejected) is a state report, not a
        # liveness failure.
        return HttpResponse(status=200, body=json_body(self.service.health()))

    async def _metrics_snapshot(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(status=200, body=json_body(self.metrics.snapshot()))

    async def _experiments_index(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(
            status=200, body=json_body(self.service.describe_experiments())
        )

    async def _experiment(
        self, request: HttpRequest, experiment_id: str
    ) -> HttpResponse:
        prepared = self.service.prepare(experiment_id, request.query)
        return await self._serve_prepared(request, prepared)

    async def _serve_prepared(
        self, request: HttpRequest, prepared: PreparedRequest
    ) -> HttpResponse:
        """One prepared request's result: 304, body-cache hit, or fetch."""
        etag = etag_for(prepared.key)
        if if_none_match_matches(request.header("if-none-match"), etag):
            # The key is derived purely from code + params, so a
            # matching If-None-Match answers without any disk access.
            self.metrics.not_modified += 1
            return HttpResponse(status=304, headers=(("ETag", etag),))
        body = self._cached_body(prepared.key)
        if body is not None:
            # Content-addressed bodies are immutable, so the warm hot path
            # is a dict lookup: no disk read, no JSON round-trip.
            self.metrics.cache_hits += 1
            self.metrics.memory_hits += 1
            state = "hit"
        else:
            result, state = await self.service.fetch(prepared)
            # Re-check: of N single-flight waiters resumed by one build, only
            # the first pays for serialization; the rest find its bytes here
            # (no await between this lookup and the insert below).
            body = self._cached_body(prepared.key)
            if body is None:
                body = json_body(result.canonical_dict())
                self._store_body(prepared.key, body)
        return HttpResponse(
            status=200,
            body=body,
            headers=(
                ("ETag", etag),
                ("X-Cache", state),
                ("Cache-Control", "no-cache"),
            ),
        )

    # ----------------------------------------------------- in-memory bodies

    def _cached_body(self, key: str) -> Optional[bytes]:
        body = self._body_cache.get(key)
        if body is not None:
            self._body_cache.move_to_end(key)
        return body

    def _store_body(self, key: str, body: bytes) -> None:
        """Insert under the byte bound, evicting least-recently-used bodies.

        A body larger than the whole budget is served but never cached —
        admitting it would evict everything else for an entry that can only
        be hit again by an identical oversized request.
        """
        if len(body) > self.body_cache_bytes:
            return
        previous = self._body_cache.pop(key, None)
        if previous is not None:
            self._body_cache_total -= len(previous)
        self._body_cache[key] = body
        self._body_cache_total += len(body)
        while self._body_cache_total > self.body_cache_bytes:
            _, evicted = self._body_cache.popitem(last=False)
            self._body_cache_total -= len(evicted)

    def _drop_body(self, key: str) -> None:
        body = self._body_cache.pop(key, None)
        if body is not None:
            self._body_cache_total -= len(body)

    def _drop_all_bodies(self) -> None:
        self._body_cache.clear()
        self._body_cache_total = 0

    # ------------------------------------------------------------ job plane

    async def _jobs_index(self, request: HttpRequest) -> HttpResponse:
        document = {
            "jobs": [job.snapshot(include_tasks=False) for job in self.jobs.jobs()],
            "counts": self.jobs.counts(),
        }
        return HttpResponse(status=200, body=json_body(document))

    async def _jobs_submit(self, request: HttpRequest) -> HttpResponse:
        document = self._parse_json_object(request)
        wait = document.pop("wait", False)
        if not isinstance(wait, bool):
            raise ServeError(400, f"'wait' must be a boolean, got {wait!r}")
        tasks = [JobTask(prepared=item) for item in self._prepare_selection(document)]
        self._reject_when_breaker_open()
        job = self.jobs.create(tasks)
        self.metrics.jobs_submitted += 1
        run = asyncio.get_running_loop().create_task(self._run_job(job))
        self._job_runs.add(run)
        run.add_done_callback(self._job_runs.discard)
        if wait:
            # Synchronous mode: the response carries the finished snapshot
            # (status "done" or "failed" — job errors never become HTTP
            # errors here; the client reads the status field).
            await asyncio.shield(run)
            return HttpResponse(status=200, body=json_body(job.snapshot()))
        return HttpResponse(
            status=202,
            body=json_body(job.snapshot()),
            headers=(("Location", f"/jobs/{job.job_id}"),),
        )

    def _prepare_selection(self, document: Mapping[str, Any]) -> List[PreparedRequest]:
        """Decode a selection, then validate and key each request (no disk I/O).

        An unknown experiment answers ``404`` from ``prepare_document``; any
        other selection error is a ``400``.
        """
        try:
            requests = registry.decode_selection(document)
        except OrchestrationError as error:
            raise ServeError(400, str(error)) from None
        return [
            self.service.prepare_document(experiment_id, params)
            for experiment_id, params in requests
        ]

    def _reject_when_breaker_open(self) -> None:
        """Refuse new write work while builds are known to be failing.

        Reads degrade per-request inside :meth:`ResultService._build`; a job
        accepted now would only queue doomed builds behind the breaker, so
        the write path rejects at the door with the same recovery hint.
        """
        breaker = self.service.breaker
        if breaker.state == "open":
            raise ServeError(
                503,
                "job submissions are temporarily disabled after repeated "
                "build failures (circuit breaker open); cached results are "
                "still served",
                headers=(("Retry-After", breaker.retry_after_header()),),
            )

    async def _run_job(self, job: Job) -> None:
        """Drive one job's tasks through the single-flight build path."""
        self.jobs.mark_running(job)
        try:
            for task in job.tasks:
                task.status = "running"
                try:
                    result, state = await self.service.fetch(task.prepared)
                except Exception as error:
                    task.status = FAILED
                    task.error = str(error) or type(error).__name__
                    raise
                task.status = DONE
                task.state = state
                # Prime the body cache so the poll that follows completion
                # (and any GET of the same point) is a memory hit.
                if self._cached_body(task.prepared.key) is None:
                    self._store_body(
                        task.prepared.key, json_body(result.canonical_dict())
                    )
        except asyncio.CancelledError:
            self.jobs.mark_failed(job, "cancelled at server shutdown")
            self.metrics.jobs_failed += 1
            raise
        except Exception as error:
            self.jobs.mark_failed(job, str(error) or type(error).__name__)
            self.metrics.jobs_failed += 1
        else:
            self.jobs.mark_done(job)
            self.metrics.jobs_completed += 1

    async def _job_status(self, request: HttpRequest, job_id: str) -> HttpResponse:
        job = self._lookup_job(job_id)
        return HttpResponse(status=200, body=json_body(job.snapshot()))

    async def _job_result(self, request: HttpRequest, job_id: str) -> HttpResponse:
        job = self._lookup_job(job_id)
        if not job.finished:
            raise ServeError(
                409,
                f"job {job_id!r} is still {job.status}; poll /jobs/{job_id} "
                "until it reports done",
            )
        if job.status == FAILED:
            raise ServeError(500, f"job {job_id!r} failed: {job.error}")
        if len(job.tasks) == 1:
            # A single-task job's result IS the experiment document — same
            # ETag/304/body-cache path as GET /experiments/{id}, so the
            # bytes are identical to the golden snapshot.
            return await self._serve_prepared(request, job.tasks[0].prepared)
        results = []
        for task in job.tasks:
            result, _ = await self.service.fetch(task.prepared)
            results.append(result.canonical_dict())
        document = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "job": job.job_id,
            "results": results,
        }
        return HttpResponse(status=200, body=json_body(document))

    def _lookup_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError(
                404,
                f"unknown job {job_id!r} (jobs are kept for the last "
                f"{self.jobs.history_limit} submissions)",
            )
        return job

    async def close(self) -> None:
        """Cancel in-flight job runs (server shutdown)."""
        for run in list(self._job_runs):
            run.cancel()
        if self._job_runs:
            await asyncio.gather(*self._job_runs, return_exceptions=True)
        self._job_runs.clear()

    # ----------------------------------------------------------- bulk plane

    async def _results(
        self, request: HttpRequest
    ) -> Union[HttpResponse, StreamingHttpResponse]:
        if request.method == "POST":
            document = self._parse_json_object(request)
            output_format = document.pop("format", None) or "json"
        else:
            document = dict(request.query)
            if "experiment" in document and "experiments" not in document:
                # A query repeats 'experiment' once per id: a GET names its
                # ids the way a POST's 'experiments' list does.
                document["experiments"] = document.pop("experiment")
            formats = document.pop("format", ["json"])
            if len(formats) > 1:
                raise ServeError(400, "query parameter 'format' was given more than once")
            output_format = formats[0]
        if output_format not in ("json", "ndjson"):
            raise ServeError(
                400, f"format must be 'json' or 'ndjson', got {output_format!r}"
            )
        prepared = self._prepare_selection(document)
        if output_format == "ndjson":
            return StreamingHttpResponse(
                status=200,
                chunks=self._ndjson_results(prepared),
                headers=(("X-Result-Count", str(len(prepared))),),
            )
        try:
            reject_duplicate_ids([item.spec.experiment_id for item in prepared])
        except OrchestrationError as error:
            raise ServeError(
                400, f"{error} (use format=ndjson for parameter grids)"
            ) from None
        results: Dict[str, Any] = {}
        for item in prepared:
            result, _ = await self.service.fetch(item)
            results[item.spec.experiment_id] = result.canonical_dict()
        self.metrics.bulk_results_served += len(results)
        return HttpResponse(
            status=200,
            body=json_body(
                {"schema_version": RESULT_SCHEMA_VERSION, "results": results}
            ),
        )

    async def _ndjson_results(
        self, prepared: Sequence[PreparedRequest]
    ) -> AsyncIterator[bytes]:
        """One result per line, computed (or cache-hit) as the stream runs.

        The 200 status line is already on the wire when a late build fails,
        so mid-stream errors become a terminal ``{"error": ...}`` line —
        consumers must treat a stream whose last line carries ``error`` as
        truncated.
        """
        for item in prepared:
            try:
                result, _ = await self.service.fetch(item)
            except ServeError as error:
                yield ndjson_line(
                    {"error": {"status": error.status, "message": str(error)}}
                )
                return
            except Exception as error:
                yield ndjson_line(
                    {"error": {"status": 500, "message": f"{type(error).__name__}: {error}"}}
                )
                return
            self.metrics.bulk_results_served += 1
            yield ndjson_line(
                {
                    "experiment_id": item.spec.experiment_id,
                    "result": result.canonical_dict(),
                }
            )

    # ---------------------------------------------------------- cache admin

    async def _cache_stats(self, request: HttpRequest) -> HttpResponse:
        self.metrics.cache_admin_ops += 1
        stats = await asyncio.to_thread(self.service.cache.stats)
        return HttpResponse(status=200, body=json_body(dataclasses.asdict(stats)))

    async def _cache_prune(self, request: HttpRequest) -> HttpResponse:
        self.metrics.cache_admin_ops += 1
        report = await asyncio.to_thread(self.service.cache.prune)
        return HttpResponse(
            status=200,
            body=json_body({"action": "prune", **dataclasses.asdict(report)}),
        )

    async def _cache_invalidate(self, request: HttpRequest) -> HttpResponse:
        self.metrics.cache_admin_ops += 1
        document = self._parse_json_object(request)
        unknown = sorted(set(document) - {"key"})
        if unknown:
            raise ServeError(
                400, f"unknown invalidate field(s): {', '.join(unknown)}"
            )
        key = document.get("key")
        if key is not None:
            if not isinstance(key, str):
                raise ServeError(400, f"'key' must be a cache-key string, got {key!r}")
            removed = await asyncio.to_thread(self.service.cache.invalidate, key)
            self._drop_body(key)
            return HttpResponse(
                status=200,
                body=json_body(
                    {"action": "invalidate", "key": key, "removed": removed}
                ),
            )
        # No key: re-hash the source tree.  Through the server's refresh
        # hook this also recycles the process pool, exactly like the
        # periodic refresh loop — the admin plane must not introduce a
        # second, weaker notion of "the code changed".
        changed = bool(await self._refresh())
        if changed:
            # Every cache key just changed, so no retained body can be
            # requested again — drop them rather than waiting for eviction.
            self._drop_all_bodies()
        return HttpResponse(
            status=200,
            body=json_body({"action": "invalidate", "fingerprint_changed": changed}),
        )

    # ------------------------------------------------------------- plumbing

    @staticmethod
    def _parse_json_object(request: HttpRequest) -> Dict[str, Any]:
        """The request body as a JSON object (empty body → empty object)."""
        if not request.body:
            return {}
        try:
            document = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(400, f"request body is not valid JSON: {error}") from None
        if not isinstance(document, dict):
            raise ServeError(
                400,
                f"request body must be a JSON object, got {type(document).__name__}",
            )
        return document
