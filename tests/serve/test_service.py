"""Tests for the transport-free result service core.

Uses a thread pool instead of a process pool — ``_pool_execute`` is
executor-agnostic and threads keep these unit tests fast; the real process
pool is exercised end-to-end in ``test_server.py``.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend import get_backend
from repro.core.exceptions import ServeError
from repro.experiments.orchestrator import ResultCache, execute_spec
from repro.experiments.orchestrator import registry
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import ResultService


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
        assert by_id["safety_violation"]["backend_sensitive"] is True

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
        expected = service.cache.key_for(
            spec, spec.params_dict(), get_backend().name
        )
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

    def test_unknown_backend_is_400(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.prepare("figure1", {"backend": ["cuda"]})
        assert excinfo.value.status == 400

    def test_explicit_backend_is_resolved(self, service):
        prepared = service.prepare("safety_violation", {"backend": ["python"]})
        assert prepared.backend == "python"

    def test_repeated_backend_is_400(self, service):
        with pytest.raises(ServeError, match="more than once") as excinfo:
            service.prepare("figure1", {"backend": ["python", "numpy"]})
        assert excinfo.value.status == 400


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

    def test_non_string_backend_is_400(self, service):
        with pytest.raises(ServeError, match="backend must be a string") as excinfo:
            service.prepare_document("figure1", {}, 3)
        assert excinfo.value.status == 400


class TestFetch:
    def test_miss_then_hit(self, service):
        async def _run():
            prepared = service.prepare("example1", {})
            first, first_state = await service.fetch(prepared)
            second, second_state = await service.fetch(prepared)
            return first, first_state, second, second_state

        first, first_state, second, second_state = asyncio.run(_run())
        assert (first_state, second_state) == ("miss", "hit")
        assert first.canonical_json() == second.canonical_json()
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
        assert served.canonical_json() == direct.canonical_json()

    def test_fifty_concurrent_identical_requests_build_once(self, service):
        async def _run():
            prepared = service.prepare("example1", {})
            results = await asyncio.gather(
                *(service.fetch(prepared) for _ in range(50))
            )
            return results

        results = asyncio.run(_run())
        assert len(results) == 50
        canonical = {result.canonical_json() for result, _ in results}
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
        assert result_a.canonical_json() != result_b.canonical_json()

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
            prepared.spec,
            prepared.params_doc,
            prepared.backend,
            fingerprint="0" * 64,
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
