"""The result service: registry lookup, param coercion, cache, single-flight.

:class:`ResultService` is the transport-free core of the HTTP server — it
maps an (experiment id, query string) pair to a content-addressed cache key
and an :class:`~repro.experiments.orchestrator.ExperimentResult`, computing
on miss via the orchestrator's :func:`engine._pool_execute` seam on a
bounded :class:`~concurrent.futures.ProcessPoolExecutor`:

- the cache key doubles as the response's strong ``ETag``, and is computed
  without touching disk, so conditional requests can be answered ``304``
  before any I/O;
- concurrent identical requests are **single-flighted**: the first request
  registers an :class:`asyncio.Task` under the key synchronously (before
  any ``await``), every later request joins it, and exactly one computation
  runs no matter how many clients ask;
- disk reads/writes go through ``asyncio.to_thread`` and computations
  through the process pool, so the event loop never blocks on an
  experiment;
- builds degrade gracefully instead of hanging or cascading: an optional
  per-request ``build_deadline`` answers ``504`` when a build exceeds it,
  and a :class:`~repro.serve.breaker.CircuitBreaker` rejects new builds
  with ``503`` + ``Retry-After`` after repeated failures — cache hits keep
  being served throughout, and one successful probe build closes the
  breaker again without a restart.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
)

from repro.backend import get_backend, registered_backends
from repro.core.exceptions import BackendError, ServeError
from repro.experiments.orchestrator import (
    ExperimentResult,
    ResultCache,
    code_fingerprint,
)
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.engine import _pool_execute
from repro.experiments.orchestrator.spec import (
    ExperimentSpec,
    variadic_tuple_element,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import ServiceMetrics

#: Query parameters with transport meaning, never forwarded as experiment params.
RESERVED_QUERY_PARAMS = frozenset({"backend"})


@dataclass(frozen=True)
class PreparedRequest:
    """A validated request: spec, canonical params, backend and cache key.

    ``fingerprint`` is the code fingerprint ``key`` embeds, captured once at
    prepare time — the store after a build records this same value, so an
    entry written by a build that straddled a source-edit refresh stays
    consistent (old key, old fingerprint, prunable) instead of pairing an
    old key with the new fingerprint, which prune() could never reclaim.
    """

    spec: ExperimentSpec
    params_doc: Mapping[str, Any]
    backend: str
    key: str
    fingerprint: str


def _type_label(annotation: Any) -> Tuple[str, bool]:
    """``(label, nullable)`` for a params-dataclass field annotation."""
    if get_origin(annotation) is Union:
        non_none = [arg for arg in get_args(annotation) if arg is not type(None)]
        if len(non_none) == 1:
            label, _ = _type_label(non_none[0])
            return label, True
    if annotation in (int, float, bool, str):
        return annotation.__name__, False
    return getattr(annotation, "__name__", str(annotation)), False


def _coerce_value(text: str, annotation: Any, name: str) -> Any:
    """Parse one query-string value into the field's annotated type."""
    if get_origin(annotation) is Union:
        non_none = [arg for arg in get_args(annotation) if arg is not type(None)]
        if len(non_none) == 1:
            if text.lower() in ("none", "null"):
                return None
            return _coerce_value(text, non_none[0], name)
    if annotation is bool:
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ServeError(400, f"parameter {name!r} must be a boolean, got {text!r}")
    if annotation is int:
        try:
            return int(text)
        except ValueError:
            raise ServeError(
                400, f"parameter {name!r} must be an integer, got {text!r}"
            ) from None
    if annotation is float:
        try:
            value = float(text)
        except ValueError:
            raise ServeError(
                400, f"parameter {name!r} must be a number, got {text!r}"
            ) from None
        if value != value or value in (float("inf"), float("-inf")):
            raise ServeError(400, f"parameter {name!r} must be finite, got {text!r}")
        return value
    if annotation is str:
        return text
    # Tuple-valued params have no query-string syntax (the JSON write path
    # takes them as arrays).
    raise ServeError(400, f"parameter {name!r} has unsupported type {annotation!r}")


def _coerce_json_value(value: Any, annotation: Any, name: str) -> Any:
    """Validate one JSON body value against the field's annotated type.

    The write path receives real JSON types, so unlike the query-string
    coercion this never parses strings — it type-checks (allowing the one
    lossless widening JSON has, int → float).  A ``Tuple[T, ...]`` field
    takes a JSON array, each element checked against ``T`` by these rules.
    """
    if get_origin(annotation) is Union:
        non_none = [arg for arg in get_args(annotation) if arg is not type(None)]
        if len(non_none) == 1:
            if value is None:
                return None
            return _coerce_json_value(value, non_none[0], name)
    if annotation is bool:
        if isinstance(value, bool):
            return value
        raise ServeError(400, f"parameter {name!r} must be a boolean, got {value!r}")
    if annotation is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ServeError(400, f"parameter {name!r} must be an integer, got {value!r}")
    if annotation is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            number = float(value)
            if number != number or number in (float("inf"), float("-inf")):
                raise ServeError(400, f"parameter {name!r} must be finite, got {value!r}")
            return number
        raise ServeError(400, f"parameter {name!r} must be a number, got {value!r}")
    if annotation is str:
        if isinstance(value, str):
            return value
        raise ServeError(400, f"parameter {name!r} must be a string, got {value!r}")
    element = variadic_tuple_element(annotation)
    if element is not None:
        if isinstance(value, list):
            return tuple(_coerce_json_value(item, element, name) for item in value)
        raise ServeError(400, f"parameter {name!r} must be an array, got {value!r}")
    raise ServeError(400, f"parameter {name!r} has unsupported type {annotation!r}")


class ResultService:
    """Serves experiment results from the cache, computing on miss."""

    def __init__(
        self,
        *,
        cache: ResultCache,
        executor: Executor,
        metrics: Optional[ServiceMetrics] = None,
        backend: Optional[str] = None,
        build_deadline: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        """Args:
        cache: the content-addressed result cache to serve from.
        executor: bounded pool misses are computed on (swapped out by the
            server when a source edit is detected — workers forked before
            the edit still run the old code).
        metrics: shared counters; a private instance by default.
        backend: default compute-backend name for requests without an
            explicit ``?backend=``; ``None`` resolves the ambient default.
        build_deadline: end-to-end seconds a request's build may take before
            the request is answered ``504`` (the build itself is abandoned
            to the executor's own policy); ``None`` waits forever.
        breaker: circuit breaker gating new builds; a default-configured
            instance when ``None``.
        """
        self.cache = cache
        self.executor = executor
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.build_deadline = build_deadline
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.default_backend = get_backend(backend).name
        self._inflight: Dict[str, "asyncio.Task[Tuple[ExperimentResult, str]]"] = {}
        # The registry is immutable for the process lifetime; build the
        # listing document once instead of re-running asdict over every
        # spec per GET /experiments.
        self._experiments_document = self._describe_experiments()

    # --------------------------------------------------------------- health

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` document: ``ok``, or ``degraded`` while the
        breaker rejects builds (cached results still flow either way)."""
        breaker_state = self.breaker.state
        status = "ok" if breaker_state == "closed" else "degraded"
        return {"status": status, "breaker": breaker_state}

    # ------------------------------------------------------------- registry

    def describe_experiments(self) -> Dict[str, Any]:
        """The ``GET /experiments`` document: ids, tags and params schema."""
        return self._experiments_document

    @staticmethod
    def _describe_experiments() -> Dict[str, Any]:
        experiments: List[Dict[str, Any]] = []
        for spec in registry.all_specs():
            params_schema: List[Dict[str, Any]] = []
            hints = spec.params_hints
            defaults = dataclasses.asdict(spec.default_params())
            for spec_field in dataclasses.fields(spec.params_type):
                label, nullable = _type_label(hints[spec_field.name])
                params_schema.append(
                    {
                        "name": spec_field.name,
                        "type": label,
                        "nullable": nullable,
                        "default": defaults[spec_field.name],
                    }
                )
            experiments.append(
                {
                    "id": spec.experiment_id,
                    "title": spec.title,
                    "tags": list(spec.tags),
                    "seed": defaults.get("seed"),
                    "params": params_schema,
                    "path": f"/experiments/{spec.experiment_id}",
                }
            )
        return {"experiments": experiments, "tags": registry.known_tags()}

    # ------------------------------------------------------------ validation

    def prepare(
        self, experiment_id: str, query: Mapping[str, Sequence[str]]
    ) -> PreparedRequest:
        """Validate a request and compute its cache key, touching no disk."""
        spec = self._lookup_spec(experiment_id)
        backend = self._resolve_backend(query)
        params_doc = self._parse_params(spec, query)
        return self._prepared(spec, params_doc, backend)

    def prepare_document(
        self,
        experiment_id: str,
        params: Optional[Mapping[str, Any]] = None,
        backend: Optional[str] = None,
    ) -> PreparedRequest:
        """Validate a JSON-document request (job submissions, bulk results).

        The write-path twin of :meth:`prepare`: ``params`` carries real JSON
        values instead of query strings, ``backend`` an explicit name or
        ``None`` for the service default.  Touches no disk.
        """
        spec = self._lookup_spec(experiment_id)
        resolved = self._resolve_backend_name(backend)
        params_doc = self._params_from_document(spec, params)
        return self._prepared(spec, params_doc, resolved)

    def _prepared(
        self, spec: ExperimentSpec, params_doc: Mapping[str, Any], backend: str
    ) -> PreparedRequest:
        fingerprint = code_fingerprint()
        key = self.cache.key_for(spec, params_doc, fingerprint=fingerprint)
        return PreparedRequest(
            spec=spec,
            params_doc=params_doc,
            backend=backend,
            key=key,
            fingerprint=fingerprint,
        )

    def _lookup_spec(self, experiment_id: str) -> ExperimentSpec:
        try:
            return registry.get_spec(experiment_id)
        except Exception:
            raise ServeError(
                404,
                f"unknown experiment {experiment_id!r} "
                f"(known: {', '.join(registry.experiment_ids())})",
            ) from None

    def _resolve_backend(self, query: Mapping[str, Sequence[str]]) -> str:
        values = list(query.get("backend", []))
        if not values:
            return self.default_backend
        if len(values) > 1:
            raise ServeError(400, "query parameter 'backend' was given more than once")
        return self._resolve_backend_name(values[0])

    def _resolve_backend_name(self, name: Optional[str]) -> str:
        if name is None:
            return self.default_backend
        if not isinstance(name, str):
            raise ServeError(400, f"backend must be a string, got {name!r}")
        try:
            return get_backend(name).name
        except BackendError as error:
            raise ServeError(
                400,
                f"unknown or unavailable backend {name!r} "
                f"(registered: {', '.join(registered_backends())}): {error}",
            ) from None

    def _parse_params(
        self, spec: ExperimentSpec, query: Mapping[str, Sequence[str]]
    ) -> Dict[str, Any]:
        extra = [name for name in query if name not in RESERVED_QUERY_PARAMS]
        hints = spec.params_hints
        known = {spec_field.name for spec_field in dataclasses.fields(spec.params_type)}
        unknown = sorted(set(extra) - known)
        if unknown:
            raise ServeError(
                400,
                f"unknown parameter(s) for {spec.experiment_id!r}: "
                f"{', '.join(unknown)} (known: {', '.join(sorted(known))})",
            )
        kwargs: Dict[str, Any] = {}
        for name in extra:
            values = query[name]
            if len(values) > 1:
                raise ServeError(400, f"parameter {name!r} was given more than once")
            kwargs[name] = _coerce_value(values[0], hints[name], name)
        return spec.params_dict(spec.params_type(**kwargs))

    def _params_from_document(
        self, spec: ExperimentSpec, params: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        if params is None:
            params = {}
        if not isinstance(params, Mapping):
            raise ServeError(
                400, f"params for {spec.experiment_id!r} must be an object"
            )
        hints = spec.params_hints
        known = {spec_field.name for spec_field in dataclasses.fields(spec.params_type)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ServeError(
                400,
                f"unknown parameter(s) for {spec.experiment_id!r}: "
                f"{', '.join(unknown)} (known: {', '.join(sorted(known))})",
            )
        kwargs = {
            name: _coerce_json_value(value, hints[name], name)
            for name, value in params.items()
        }
        return spec.params_dict(spec.params_type(**kwargs))

    # ------------------------------------------------------------- fetching

    async def fetch(self, prepared: PreparedRequest) -> Tuple[ExperimentResult, str]:
        """The result for a prepared request, plus ``"hit"`` / ``"miss"``.

        Single-flight: the per-key task is registered synchronously, so any
        number of concurrent identical requests share one cache load and at
        most one computation.
        """
        task = self._inflight.get(prepared.key)
        if task is None:
            task = asyncio.get_running_loop().create_task(self._guarded_load(prepared))
            self._inflight[prepared.key] = task
            task.add_done_callback(lambda _t: self._inflight.pop(prepared.key, None))
        else:
            self.metrics.single_flight_joined += 1
        # shield(): a disconnecting client must not cancel the shared build
        # out from under the other waiters (or the cache write).
        result, state = await asyncio.shield(task)
        if state == "hit":
            self.metrics.cache_hits += 1
        else:
            self.metrics.cache_misses += 1
        return result, state

    async def _guarded_load(
        self, prepared: PreparedRequest
    ) -> Tuple[ExperimentResult, str]:
        """``_load_or_build`` that can never strand or poison the gate.

        On failure the in-flight entry is removed *synchronously, before the
        exception propagates* — the done-callback alone leaves a window in
        which a request arriving between the failure and the callback joins
        the already-failed task and receives a stale error even though a
        fresh build would have succeeded.  Every current waiter still gets
        the failure (they awaited this task); only future requests start
        clean.
        """
        try:
            return await self._load_or_build(prepared)
        except BaseException:
            self._inflight.pop(prepared.key, None)
            raise

    async def _load_or_build(
        self, prepared: PreparedRequest
    ) -> Tuple[ExperimentResult, str]:
        cached = await asyncio.to_thread(self.cache.load, prepared.key)
        if cached is not None and cached.experiment_id == prepared.spec.experiment_id:
            return cached, "hit"
        return await self._build(prepared), "miss"

    async def _build(self, prepared: PreparedRequest) -> ExperimentResult:
        loop = asyncio.get_running_loop()
        if not self.breaker.allow_build():
            # Repeated build failures opened the breaker: reject fast with a
            # recovery hint instead of feeding another doomed build to the
            # pool.  Cache hits never reach this point — only misses degrade.
            self.metrics.builds_rejected += 1
            raise ServeError(
                503,
                "experiment builds are temporarily disabled after repeated "
                f"failures (breaker {self.breaker.state}); cached results "
                "are still served",
                headers=(("Retry-After", self.breaker.retry_after_header()),),
            )
        self.metrics.builds += 1
        self.metrics.in_flight_builds += 1
        # One synchronous block, no await: the server swaps the memoized
        # fingerprint and the executor together on this thread, so this pair
        # is consistent — `executor` runs the code `fingerprint` hashes.
        executor = self.executor
        fingerprint = code_fingerprint()
        try:
            future = loop.run_in_executor(
                executor,
                _pool_execute,
                prepared.spec.experiment_id,
                dict(prepared.params_doc),
                prepared.backend,
            )
            if self.build_deadline is not None:
                try:
                    document = await asyncio.wait_for(future, self.build_deadline)
                except asyncio.TimeoutError:
                    self.metrics.build_timeouts += 1
                    raise ServeError(
                        504,
                        f"build of {prepared.spec.experiment_id!r} exceeded "
                        f"the {self.build_deadline}s deadline",
                    ) from None
            else:
                document = await future
        except Exception:
            self.metrics.build_failures += 1
            self.breaker.record_failure()
            raise
        finally:
            self.metrics.in_flight_builds -= 1
        self.breaker.record_success()
        # The worker's document is what store() writes; decoding is only
        # for the caller and the metrics, never re-encoded with to_dict().
        result = ExperimentResult.from_dict(document)
        # The build ran in a pool worker; its kernel counters and peak RSS
        # ride back on the volatile section of the result document.
        self.metrics.record_kernels(dict(result.kernel_counters))
        self.metrics.record_build_rss(result.peak_rss_kb)
        store_key = prepared.key
        if fingerprint != prepared.fingerprint:
            # A source-edit refresh landed between prepare() and the build:
            # the result came from the *new* code, so it must be stored
            # under the new fingerprint's key — never as prepared.key, which
            # would serve new-code numbers as cache hits for the old (or a
            # later reverted) source.
            store_key = self.cache.key_for(
                prepared.spec, prepared.params_doc, fingerprint=fingerprint
            )
        await asyncio.to_thread(
            self.cache.store, store_key, document, fingerprint=fingerprint
        )
        return result
