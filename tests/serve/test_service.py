"""Tests for the transport-free result service core.

Uses a thread pool instead of a process pool — ``_pool_execute`` is
executor-agnostic and threads keep these unit tests fast; the real process
pool is exercised end-to-end in ``test_server.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import os
import typing
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend import get_backend
from repro.core.exceptions import ServeError
import repro.serve.service as service_module
from repro.experiments.orchestrator import ExperimentResult, ResultCache, execute_spec, json_body
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator import spec as spec_module
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import PreparedRequest, ResultService


@pytest.fixture
def service(tmp_path):
    with ThreadPoolExecutor(max_workers=2) as executor:
        yield ResultService(
            cache=ResultCache(str(tmp_path / "cache")),
            executor=executor,
            metrics=ServiceMetrics(),
        )


class TestDescribeExperiments:
    def test_lists_every_registered_experiment(self, service):
        document = service.describe_experiments()
        ids = [entry["id"] for entry in document["experiments"]]
        assert ids == registry.experiment_ids()
        assert document["tags"] == registry.known_tags()

    def test_params_schema_carries_names_types_defaults(self, service):
        document = service.describe_experiments()
        by_id = {entry["id"]: entry for entry in document["experiments"]}
        figure1_params = {param["name"]: param for param in by_id["figure1"]["params"]}
        assert figure1_params["max_residual_miners"]["type"] == "int"
        assert figure1_params["max_residual_miners"]["default"] == 1000

    def test_listed_seed_is_the_default_params_seed(self, service):
        document = service.describe_experiments()
        by_id = {entry["id"]: entry for entry in document["experiments"]}
        assert by_id["safety_violation"]["seed"] == 7
        assert by_id["figure1"]["seed"] is None

    def test_listing_is_json_safe(self, service):
        import json

        json.dumps(service.describe_experiments())


class TestPrepare:
    def test_unknown_experiment_is_404(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.prepare("does-not-exist", {})
        assert excinfo.value.status == 404

    def test_default_key_matches_the_orchestrator_cache_key(self, service):
        spec = registry.get_spec("figure1")
        prepared = service.prepare("figure1", {})
        expected = service.cache.key_for(spec, spec.params_dict())
        assert prepared.key == expected

    def test_param_overrides_change_the_key(self, service):
        default = service.prepare("figure1", {})
        tweaked = service.prepare("figure1", {"max_residual_miners": ["10"]})
        assert tweaked.key != default.key
        assert tweaked.params_doc["max_residual_miners"] == 10

    def test_unknown_param_is_400(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.prepare("figure1", {"bogus": ["1"]})
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_non_integer_value_is_400(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.prepare("figure1", {"max_residual_miners": ["ten"]})
        assert excinfo.value.status == 400

    def test_repeated_param_is_400(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.prepare("figure1", {"max_residual_miners": ["1", "2"]})
        assert excinfo.value.status == 400

    def test_float_param_coercion(self, service):
        prepared = service.prepare(
            "safety_violation", {"vulnerability_probability": ["0.5"]}
        )
        assert prepared.params_doc["vulnerability_probability"] == 0.5

    def test_non_finite_float_is_400(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.prepare("safety_violation", {"vulnerability_probability": ["nan"]})
        assert excinfo.value.status == 400

    def test_non_numeric_float_is_400(self, service):
        with pytest.raises(ServeError, match="must be a number") as excinfo:
            service.prepare("safety_violation", {"vulnerability_probability": ["half"]})
        assert excinfo.value.status == 400

    def test_string_param_is_passed_through(self, service):
        prepared = service.prepare("campaign_budget", {"ecosystem": ["diverse"]})
        assert prepared.params_doc["ecosystem"] == "diverse"

    def test_tuple_param_in_a_query_is_400(self, service):
        # Tuple-valued params have no query-string syntax: a clean 400, not a 500.
        with pytest.raises(ServeError, match="unsupported type") as excinfo:
            service.prepare("proposition1", {"kappas": ["1,2"]})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("values", [["cuda"], ["python"], ["python", "numpy"]])
    def test_a_named_backend_is_an_unknown_parameter(self, service, values):
        with pytest.raises(ServeError) as excinfo:
            service.prepare("figure1", {"backend": values})
        assert excinfo.value.status == 400
        assert str(excinfo.value).startswith(
            "unknown parameter(s) for 'figure1': backend (known: "
        )


class TestProcessBackend:
    """A request is (experiment id, params): the backend is the process's."""

    def test_a_prepared_request_carries_no_backend(self, service):
        names = [field.name for field in dataclasses.fields(PreparedRequest)]
        assert names == ["spec", "params_doc", "key", "fingerprint"]

    def test_the_service_takes_no_backend(self, tmp_path):
        with pytest.raises(TypeError, match="backend"):
            ResultService(
                cache=ResultCache(str(tmp_path / "cache")),
                executor=None,
                backend="python",
            )

    def test_misses_build_on_the_backend_the_process_resolved(
        self, service, monkeypatch
    ):
        seen = []
        original_execute = service_module._pool_execute

        def execute(experiment_id, params_doc, backend):
            seen.append(backend)
            return original_execute(experiment_id, params_doc, backend)

        monkeypatch.setattr(service_module, "_pool_execute", execute)

        async def _run():
            await service.fetch(service.prepare("example1", {}))
            await service.fetch(service.prepare_document("proposition1", None))

        asyncio.run(_run())
        assert seen == [get_backend().name] * 2
        assert service.backend == get_backend().name


class TestPrepareDocument:
    """The write path (JSON bodies) type-checks values instead of parsing text."""

    def test_json_int_widens_to_float_with_the_query_key(self, service):
        from_json = service.prepare_document(
            "safety_violation", {"vulnerability_probability": 1}
        )
        from_query = service.prepare(
            "safety_violation", {"vulnerability_probability": ["1"]}
        )
        assert from_json.params_doc["vulnerability_probability"] == 1.0
        assert type(from_json.params_doc["vulnerability_probability"]) is float
        assert from_json.key == from_query.key

    def test_string_param_is_accepted(self, service):
        prepared = service.prepare_document("campaign_budget", {"ecosystem": "diverse"})
        assert prepared.key == service.prepare(
            "campaign_budget", {"ecosystem": ["diverse"]}
        ).key

    @pytest.mark.parametrize(
        "experiment, name, value, message",
        [
            ("safety_violation", "vulnerability_probability", "0.5", "must be a number"),
            ("safety_violation", "vulnerability_probability", True, "must be a number"),
            ("safety_violation", "vulnerability_probability", math.nan, "must be finite"),
            ("campaign_budget", "ecosystem", 3, "must be a string"),
            ("figure1", "max_residual_miners", 2.5, "must be an integer"),
            ("figure1", "max_residual_miners", True, "must be an integer"),
        ],
    )
    def test_mistyped_value_is_400(self, service, experiment, name, value, message):
        with pytest.raises(ServeError, match=message) as excinfo:
            service.prepare_document(experiment, {name: value})
        assert excinfo.value.status == 400

    def test_params_must_be_an_object(self, service):
        with pytest.raises(ServeError, match="must be an object") as excinfo:
            service.prepare_document("figure1", ["max_residual_miners"])
        assert excinfo.value.status == 400

    def test_a_backend_in_params_is_an_unknown_parameter(self, service):
        with pytest.raises(
            ServeError, match=r"unknown parameter\(s\) for 'figure1': backend"
        ) as excinfo:
            service.prepare_document("figure1", {"backend": "python"})
        assert excinfo.value.status == 400


class TestParamsTypeHints:
    def test_type_hints_resolve_once_per_params_type(self, service, monkeypatch):
        resolved = []

        def spy(params_type, *args, **kwargs):
            resolved.append(params_type)
            return typing.get_type_hints(params_type, *args, **kwargs)

        spec_module._type_hints.cache_clear()
        monkeypatch.setattr(spec_module, "get_type_hints", spy)
        monkeypatch.setattr(service_module, "get_type_hints", spy, raising=False)
        try:
            for seed in range(5):
                service.prepare_document("two_class", {"seed": seed})
                service.prepare_document("safety_violation", {"trials": 10 + seed})
                service.prepare("two_class", {"seed": [str(seed)]})
        finally:
            spec_module._type_hints.cache_clear()
        two_class = registry.get_spec("two_class").params_type
        safety = registry.get_spec("safety_violation").params_type
        assert sorted(resolved, key=repr) == sorted([two_class, safety], key=repr)

    def test_shared_hints_are_read_only(self):
        spec = registry.get_spec("two_class")
        assert spec.params_hints is spec.params_hints
        assert dict(spec.params_hints) == typing.get_type_hints(spec.params_type)
        with pytest.raises(TypeError):
            spec.params_hints["seed"] = str


#: The experiments perfbench's serve_writes workload submits.
WRITE_EXPERIMENTS = (
    "campaign_budget",
    "safety_violation",
    "two_class",
    "vulnerability_window",
    "component_exposure",
)


class TestStoredDocument:
    @pytest.mark.parametrize("experiment", WRITE_EXPERIMENTS)
    def test_build_stores_the_worker_document_as_returned(
        self, service, monkeypatch, tmp_path, experiment
    ):
        returned, stored = [], []
        original_execute = service_module._pool_execute
        original_store = ResultCache.store

        def execute(*args):
            returned.append(original_execute(*args))
            return returned[-1]

        def store(cache, key, result, **kwargs):
            stored.append(result)
            return original_store(cache, key, result, **kwargs)

        monkeypatch.setattr(service_module, "_pool_execute", execute)
        monkeypatch.setattr(ResultCache, "store", store)

        async def _run():
            prepared = service.prepare_document(experiment, {"seed": 5})
            result, state = await service.fetch(prepared)
            return prepared, result, state

        prepared, result, state = asyncio.run(_run())
        assert state == "miss"
        assert stored == returned and stored[0] is returned[0]
        assert "code_fingerprint" not in returned[0]  # stored as a copy
        # The entry's bytes are those the decoded result would have stored.
        reference = ResultCache(str(tmp_path / "reference"))
        expected = original_store(
            reference,
            prepared.key,
            ExperimentResult.from_dict(returned[0]).to_dict(),
            fingerprint=prepared.fingerprint,
        )
        entry = os.path.join(service.cache.directory, f"{prepared.key}.json")
        with open(entry, "rb") as actual, open(expected, "rb") as wanted:
            assert actual.read() == wanted.read()
        rebuilt = ExperimentResult.from_dict(returned[0])
        assert json_body(result.canonical_dict()) == json_body(rebuilt.canonical_dict())


class TestFetch:
    def test_miss_then_hit(self, service):
        async def _run():
            prepared = service.prepare("example1", {})
            first, first_state = await service.fetch(prepared)
            second, second_state = await service.fetch(prepared)
            return first, first_state, second, second_state

        first, first_state, second, second_state = asyncio.run(_run())
        assert (first_state, second_state) == ("miss", "hit")
        assert json_body(first.canonical_dict()) == json_body(second.canonical_dict())
        assert service.metrics.builds == 1
        assert service.metrics.cache_hits == 1
        assert service.metrics.cache_misses == 1

    def test_result_matches_direct_execution(self, service):
        async def _run():
            prepared = service.prepare("example1", {})
            result, _ = await service.fetch(prepared)
            return result

        served = asyncio.run(_run())
        direct = execute_spec(registry.get_spec("example1"))
        assert json_body(served.canonical_dict()) == json_body(direct.canonical_dict())

    def test_fifty_concurrent_identical_requests_build_once(self, service):
        async def _run():
            prepared = service.prepare("example1", {})
            results = await asyncio.gather(
                *(service.fetch(prepared) for _ in range(50))
            )
            return results

        results = asyncio.run(_run())
        assert len(results) == 50
        canonical = {json_body(result.canonical_dict()) for result, _ in results}
        assert len(canonical) == 1
        assert service.metrics.builds == 1
        assert service.metrics.single_flight_joined == 49

    def test_distinct_params_are_not_coalesced(self, service):
        async def _run():
            first = service.prepare("example1", {})
            second = service.prepare("example1", {"max_residual_miners": ["10"]})
            return await asyncio.gather(service.fetch(first), service.fetch(second))

        (result_a, _), (result_b, _) = asyncio.run(_run())
        assert service.metrics.builds == 2
        assert json_body(result_a.canonical_dict()) != json_body(result_b.canonical_dict())

    def test_build_straddling_a_refresh_is_stored_under_the_new_key(self, service):
        from repro.experiments.orchestrator.cache import (
            invalidate_code_fingerprint,
            set_code_fingerprint,
        )

        async def _run():
            prepared = service.prepare("example1", {})
            # A source-edit refresh lands between prepare() and the build:
            # the new fingerprint keys the code the executor now runs.
            set_code_fingerprint("0" * 64)
            result, state = await service.fetch(prepared)
            return prepared, result, state

        try:
            prepared, result, state = asyncio.run(_run())
        finally:
            invalidate_code_fingerprint()
        assert state == "miss"
        # Nothing may be stored under the stale pre-refresh key...
        assert service.cache.load(prepared.key) is None
        # ...the entry lives under the key the post-refresh world derives.
        rekeyed = service.cache.key_for(
            prepared.spec, prepared.params_doc, fingerprint="0" * 64
        )
        assert service.cache.load(rekeyed) is not None

    def test_waiter_cancellation_does_not_kill_the_build(self, service):
        async def _run():
            prepared = service.prepare("example1", {})
            task = asyncio.ensure_future(service.fetch(prepared))
            await asyncio.sleep(0)  # let the fetch register its build
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The shielded build completes and lands in the cache.
            result, state = await service.fetch(prepared)
            return result, state

        result, state = asyncio.run(_run())
        assert result.experiment_id == "example1"
        assert service.metrics.builds == 1
