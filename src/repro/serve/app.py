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

- ``POST /jobs`` — submit an experiment (or a parameter grid) for
  asynchronous computation; ``GET /jobs`` / ``GET /jobs/{id}`` poll it and
  ``GET /jobs/{id}/result`` serves the finished document;
- ``GET|POST /results`` — a bulk results document over many experiments,
  or an NDJSON stream (``format=ndjson``) for large sweeps;
- ``GET /cache/stats`` and ``POST /cache/prune|invalidate|warm`` — the
  cache-administration plane over the content-addressed
  :class:`~repro.experiments.orchestrator.ResultCache`.

Every route goes through one table mapping path → allowed methods, so an
unsupported method is a uniform 405 with a correct ``Allow`` header, and
every error — routing, validation or a failed build — is translated into a
JSON ``{"error": {...}}`` body with the right status, never a raw traceback.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
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

from repro.core.exceptions import ServeError
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.cache import refresh_code_fingerprint
from repro.experiments.orchestrator.result import RESULT_SCHEMA_VERSION, json_body
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

#: Upper bound on tasks in one job and on results in one bulk request.
MAX_JOB_TASKS = 256

#: Keys a job-submission document may carry.
JOB_DOCUMENT_KEYS = frozenset({"experiment", "experiments", "params", "grid", "wait"})

#: Keys a bulk-results selection document may carry.
RESULTS_DOCUMENT_KEYS = frozenset({"experiments", "tag", "format"})

#: Keys a cache-warm document may carry.
WARM_DOCUMENT_KEYS = frozenset({"experiments", "tag"})


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
        refresh: Optional[Callable[[], Awaitable[bool]]] = None,
    ) -> None:
        """Args:
        service: the transport-free result service.
        metrics: shared counters; the service's instance by default.
        body_cache_bytes: total encoded-body bytes kept in the in-memory
            LRU (one oversized body is served but never cached).
        jobs: the job store backing ``POST /jobs``; a default-configured
            one when ``None``.
        refresh: awaitable forcing a fingerprint refresh (the server's
            ``refresh_now``, which also recycles the process pool);
            ``None`` falls back to refreshing the memo alone.
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
            "/cache/warm": {"POST": self._cache_warm},
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
        unknown = sorted(set(document) - JOB_DOCUMENT_KEYS)
        if unknown:
            raise ServeError(
                400,
                f"unknown job field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(JOB_DOCUMENT_KEYS))})",
            )
        wait = document.get("wait", False)
        if not isinstance(wait, bool):
            raise ServeError(400, f"'wait' must be a boolean, got {wait!r}")
        tasks = self._job_tasks_from(document)
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

    def _job_tasks_from(self, document: Mapping[str, Any]) -> List[JobTask]:
        """Expand a submission document into validated tasks (no disk I/O)."""
        entries = document.get("experiments")
        if entries is not None:
            for key in ("experiment", "params", "grid"):
                if key in document:
                    raise ServeError(
                        400, f"'experiments' cannot be combined with {key!r}"
                    )
            prepared = self._prepare_entries(entries)
        elif "experiment" in document:
            prepared = self._expand_grid(
                document["experiment"], document.get("params"), document.get("grid")
            )
        else:
            raise ServeError(
                400, "a job document needs 'experiment' or 'experiments'"
            )
        if not prepared:
            raise ServeError(400, "a job needs at least one task")
        if len(prepared) > MAX_JOB_TASKS:
            raise ServeError(
                400,
                f"job expands to {len(prepared)} tasks "
                f"(the limit is {MAX_JOB_TASKS}); split the submission",
            )
        return [JobTask(prepared=item) for item in prepared]

    def _prepare_entries(self, entries: Any) -> List[PreparedRequest]:
        if not isinstance(entries, list):
            raise ServeError(400, "'experiments' must be a list")
        prepared: List[PreparedRequest] = []
        for index, entry in enumerate(entries):
            if isinstance(entry, str):
                prepared.append(self.service.prepare_document(entry))
            elif isinstance(entry, Mapping):
                unknown = sorted(set(entry) - {"experiment", "params"})
                if unknown:
                    raise ServeError(
                        400,
                        f"experiments[{index}] has unknown field(s): "
                        f"{', '.join(unknown)}",
                    )
                experiment_id = entry.get("experiment")
                if not isinstance(experiment_id, str):
                    raise ServeError(
                        400, f"experiments[{index}] needs an 'experiment' string"
                    )
                prepared.append(
                    self.service.prepare_document(experiment_id, entry.get("params"))
                )
            else:
                raise ServeError(
                    400,
                    f"experiments[{index}] must be an experiment id or an object",
                )
        return prepared

    def _expand_grid(
        self, experiment_id: Any, params: Any, grid: Any
    ) -> List[PreparedRequest]:
        if not isinstance(experiment_id, str):
            raise ServeError(400, "'experiment' must be an experiment id string")
        if grid is None:
            return [self.service.prepare_document(experiment_id, params)]
        if not isinstance(grid, Mapping) or not grid:
            raise ServeError(
                400, "'grid' must be a non-empty object of parameter value lists"
            )
        axes: List[Tuple[str, List[Any]]] = []
        for name in sorted(grid):
            values = grid[name]
            if not isinstance(values, list) or not values:
                raise ServeError(
                    400, f"grid axis {name!r} must be a non-empty list of values"
                )
            axes.append((name, values))
        base = dict(params) if isinstance(params, Mapping) else {}
        if params is not None and not isinstance(params, Mapping):
            raise ServeError(400, f"params for {experiment_id!r} must be an object")
        overlap = sorted(set(base) & {name for name, _ in axes})
        if overlap:
            raise ServeError(
                400,
                f"grid axis and params overlap: {', '.join(overlap)} "
                "(a parameter is either fixed or swept, not both)",
            )
        points = itertools.product(*(values for _, values in axes))
        names = [name for name, _ in axes]
        prepared = []
        for combo in points:
            if len(prepared) >= MAX_JOB_TASKS:
                raise ServeError(
                    400,
                    f"grid expands past the {MAX_JOB_TASKS}-task limit; "
                    "split the sweep",
                )
            point = dict(base)
            point.update(zip(names, combo))
            prepared.append(self.service.prepare_document(experiment_id, point))
        return prepared

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
            unknown = sorted(set(document) - RESULTS_DOCUMENT_KEYS)
            if unknown:
                raise ServeError(
                    400,
                    f"unknown results field(s): {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(RESULTS_DOCUMENT_KEYS))})",
                )
        else:
            document = self._results_selection_from_query(request.query)
        output_format = document.get("format") or "json"
        if output_format not in ("json", "ndjson"):
            raise ServeError(
                400, f"format must be 'json' or 'ndjson', got {output_format!r}"
            )
        prepared = self._bulk_selection(document)
        if output_format == "ndjson":
            return StreamingHttpResponse(
                status=200,
                chunks=self._ndjson_results(prepared),
                headers=(("X-Result-Count", str(len(prepared))),),
            )
        ids = [item.spec.experiment_id for item in prepared]
        duplicates = sorted({x for x in ids if ids.count(x) > 1})
        if duplicates:
            raise ServeError(
                400,
                "duplicate experiment(s) in one results document: "
                f"{', '.join(duplicates)} (use format=ndjson for parameter grids)",
            )
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

    @staticmethod
    def _results_selection_from_query(
        query: Mapping[str, Sequence[str]]
    ) -> Dict[str, Any]:
        """Normalize ``GET /results`` query params to the POST document shape."""
        known = {"experiment", "tag", "format"}
        unknown = sorted(set(query) - known)
        if unknown:
            raise ServeError(
                400,
                f"unknown query parameter(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})",
            )
        document: Dict[str, Any] = {}
        experiments = list(query.get("experiment", []))
        if experiments:
            document["experiments"] = experiments
        tags = list(query.get("tag", []))
        if tags:
            document["tag"] = tags
        formats = list(query.get("format", []))
        if len(formats) > 1:
            raise ServeError(400, "query parameter 'format' was given more than once")
        if formats:
            document["format"] = formats[0]
        return document

    def _bulk_selection(self, document: Mapping[str, Any]) -> List[PreparedRequest]:
        """The prepared requests a results/warm selection document names."""
        entries = document.get("experiments")
        tags = document.get("tag")
        if isinstance(tags, str):
            tags = [tags]
        if tags is not None:
            if entries is not None:
                raise ServeError(
                    400, "'tag' cannot be combined with an explicit experiment list"
                )
            if not isinstance(tags, list) or not all(
                isinstance(tag, str) for tag in tags
            ):
                raise ServeError(400, "'tag' must be a tag name or list of names")
            known_tags = set(registry.known_tags())
            unknown = sorted(set(tags) - known_tags)
            if unknown:
                raise ServeError(
                    400,
                    f"unknown tag(s): {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(known_tags))})",
                )
            entries = [
                spec.experiment_id
                for spec in registry.all_specs()
                if set(spec.tags) & set(tags)
            ]
        if entries is None:
            entries = registry.experiment_ids()
        prepared = self._prepare_entries(entries)
        if not prepared:
            raise ServeError(400, "the selection matches no experiments")
        if len(prepared) > MAX_JOB_TASKS:
            raise ServeError(
                400,
                f"selection expands to {len(prepared)} results "
                f"(the limit is {MAX_JOB_TASKS}); narrow it",
            )
        return prepared

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
        if self._refresh is not None:
            changed = bool(await self._refresh())
        else:
            changed = await asyncio.to_thread(refresh_code_fingerprint)
        if changed:
            # Every cache key just changed, so no retained body can be
            # requested again — drop them rather than waiting for eviction.
            self._drop_all_bodies()
        return HttpResponse(
            status=200,
            body=json_body({"action": "invalidate", "fingerprint_changed": changed}),
        )

    async def _cache_warm(self, request: HttpRequest) -> HttpResponse:
        self.metrics.cache_admin_ops += 1
        document = self._parse_json_object(request)
        unknown = sorted(set(document) - WARM_DOCUMENT_KEYS)
        if unknown:
            raise ServeError(
                400,
                f"unknown warm field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(WARM_DOCUMENT_KEYS))})",
            )
        prepared = self._bulk_selection(document)
        warmed: List[Dict[str, Any]] = []
        counts = {"hit": 0, "miss": 0}
        for item in prepared:
            _, state = await self.service.fetch(item)
            counts[state] = counts.get(state, 0) + 1
            warmed.append(
                {
                    "experiment_id": item.spec.experiment_id,
                    "cache": state,
                    "key": item.key,
                }
            )
        return HttpResponse(
            status=200,
            body=json_body({"action": "warm", "counts": counts, "results": warmed}),
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
