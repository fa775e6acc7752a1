"""End-to-end tests: real sockets, real process pool, real HTTP bytes.

Each test drives a :class:`ResultServer` on an ephemeral port through the
keep-alive client in ``http_client.py``.  The heavyweight checks (golden
equality for every experiment, 50-way single-flight) share one server per
test so the process pool is paid for once.
"""

from __future__ import annotations

import asyncio
import json
import math
from pathlib import Path

import pytest

from repro.backend import get_backend
from repro.experiments.orchestrator import registry
from repro.serve import ServiceMetrics
from repro.serve.server import ResultServer

from http_client import BenchClient

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Float tolerances matching the golden regression suite
#: (tests/experiments/test_golden.py): experiments marked
#: backend-insensitive still jitter by ~1 ulp across backends, and the
#: golden files were generated under one ambient backend.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def assert_close(expected, actual, path="$"):
    """Recursive equality with the golden suite's float tolerance."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        assert type(expected) is type(actual) and expected == actual, path
    elif isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(expected, (int, float)) and isinstance(actual, (int, float)), path
        assert math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{path}: {expected!r} != {actual!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and expected.keys() == actual.keys(), path
        for key in expected:
            assert_close(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(expected) == len(actual), path
        for index, (left, right) in enumerate(zip(expected, actual)):
            assert_close(left, right, f"{path}[{index}]")
    else:
        assert expected == actual, f"{path}: {expected!r} != {actual!r}"


def with_server(test_body, *, jobs=2, **server_kwargs):
    """Run ``await test_body(server, client)`` against a fresh server."""

    async def _run():
        server = ResultServer(
            host="127.0.0.1",
            port=0,
            jobs=jobs,
            refresh_interval=0.0,
            metrics=ServiceMetrics(),
            **server_kwargs,
        )
        await server.start()
        try:
            async with BenchClient("127.0.0.1", server.port) as client:
                return await test_body(server, client)
        finally:
            await server.stop()

    return asyncio.run(_run())


class TestRoutes:
    def test_healthz(self):
        async def body(server, client):
            return await client.get("/healthz")

        response = with_server(body)
        assert response.status == 200
        assert json.loads(response.body) == {"status": "ok", "breaker": "closed"}

    def test_experiments_listing(self):
        async def body(server, client):
            return await client.get("/experiments")

        response = with_server(body)
        assert response.status == 200
        document = json.loads(response.body)
        assert [e["id"] for e in document["experiments"]] == registry.experiment_ids()

    def test_metrics_counts_requests(self):
        async def body(server, client):
            await client.get("/healthz")
            return await client.get("/metrics")

        response = with_server(body)
        snapshot = json.loads(response.body)
        assert snapshot["requests_total"] == 2
        assert snapshot["responses_by_status"]["200"] == 1  # /metrics not yet counted

    def test_unknown_route_is_404(self):
        async def body(server, client):
            return await client.get("/nope")

        response = with_server(body)
        assert response.status == 404
        assert json.loads(response.body)["error"]["status"] == 404

    def test_unknown_experiment_is_404(self):
        async def body(server, client):
            return await client.get("/experiments/does-not-exist")

        assert with_server(body).status == 404

    def test_bad_param_is_400(self):
        async def body(server, client):
            return await client.get("/experiments/figure1?bogus=1")

        response = with_server(body)
        assert response.status == 400
        assert "bogus" in json.loads(response.body)["error"]["message"]

    def test_post_is_405(self):
        async def body(server, client):
            writer = client._writer
            writer.write(b"POST /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            status_line = (await client._reader.readline()).decode()
            # Drain the rest of the response off the shared connection.
            while (await client._reader.readline()).strip():
                pass
            return status_line

        status_line = with_server(body)
        assert " 405 " in status_line

    def test_malformed_request_is_answered_and_closed(self):
        async def body(server, client):
            writer = client._writer
            writer.write(b"garbage\r\n\r\n")
            await writer.drain()
            status_line = (await client._reader.readline()).decode()
            return status_line

        assert " 400 " in with_server(body)


class TestResultServing:
    def test_miss_then_hit_with_stable_etag(self):
        async def body(server, client):
            first = await client.get("/experiments/example1")
            second = await client.get("/experiments/example1")
            return first, second

        first, second = with_server(body)
        assert (first.status, second.status) == (200, 200)
        assert first.header("x-cache") == "miss"
        assert second.header("x-cache") == "hit"
        assert first.header("etag") == second.header("etag")
        assert first.body == second.body

    def test_repeat_requests_hit_the_in_memory_body_cache(self):
        async def body(server, client):
            first = await client.get("/experiments/example1")
            second = await client.get("/experiments/example1")
            third = await client.get("/experiments/example1")
            return first, second, third, server.metrics

        first, second, third, metrics = with_server(body)
        assert first.body == second.body == third.body
        # First request built and populated the body cache; the repeats are
        # answered from memory without any disk read.
        assert metrics.memory_hits == 2
        assert metrics.cache_hits == 2
        assert second.header("x-cache") == "hit"

    def test_etag_round_trip_is_304(self):
        async def body(server, client):
            first = await client.get("/experiments/example1")
            etag = first.header("etag")
            revalidated = await client.get(
                "/experiments/example1", headers={"If-None-Match": etag}
            )
            return first, revalidated, server.metrics.not_modified

        first, revalidated, not_modified = with_server(body)
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.header("etag") == first.header("etag")
        assert not_modified == 1

    def test_stale_etag_gets_a_fresh_200(self):
        async def body(server, client):
            await client.get("/experiments/example1")
            return await client.get(
                "/experiments/example1", headers={"If-None-Match": '"stale"'}
            )

        assert with_server(body).status == 200

    def test_params_select_a_different_result(self):
        async def body(server, client):
            default = await client.get("/experiments/example1")
            tweaked = await client.get("/experiments/example1?max_residual_miners=10")
            return default, tweaked

        default, tweaked = with_server(body)
        assert tweaked.status == 200
        assert tweaked.header("etag") != default.header("etag")
        assert tweaked.body != default.body
        assert json.loads(tweaked.body)["params"]["max_residual_miners"] == 10

    def test_served_json_is_byte_identical_to_every_golden_snapshot(self):
        backend = get_backend().name

        async def body(server, client):
            async def fetch(experiment_id):
                async with BenchClient("127.0.0.1", server.port) as own:
                    return experiment_id, await own.get(f"/experiments/{experiment_id}")

            pairs = await asyncio.gather(
                *(fetch(spec.experiment_id) for spec in registry.all_specs())
            )
            return dict(pairs)

        responses = with_server(body, jobs=4)
        for spec in registry.all_specs():
            name = (
                f"{spec.experiment_id}.{backend}.json"
                if spec.backend_sensitive
                else f"{spec.experiment_id}.json"
            )
            golden = (GOLDEN_DIR / name).read_bytes()
            response = responses[spec.experiment_id]
            assert response.status == 200, spec.experiment_id
            if spec.backend_sensitive:
                # Per-backend golden files: byte-identity must hold exactly.
                assert response.body == golden, (
                    f"{spec.experiment_id} differs from golden"
                )
            else:
                # Backend-insensitive golden files were generated under one
                # ambient backend and jitter by ~1 ulp on others; hold them
                # to the golden suite's tolerance, byte-identity when the
                # ambient backend reproduces the file exactly.
                if response.body != golden:
                    assert_close(
                        json.loads(golden),
                        json.loads(response.body),
                        path=spec.experiment_id,
                    )

    def test_explicit_backend_query_param(self):
        async def body(server, client):
            return await client.get("/experiments/safety_violation?backend=python")

        response = with_server(body)
        assert response.status == 200
        assert json.loads(response.body)["backend"] == "python"


class TestSingleFlight:
    def test_fifty_concurrent_requests_trigger_exactly_one_build(self):
        async def body(server, client):
            async def one_request():
                async with BenchClient("127.0.0.1", server.port) as own:
                    return await own.get("/experiments/example1")

            responses = await asyncio.gather(*(one_request() for _ in range(50)))
            return responses, server.metrics

        responses, metrics = with_server(body)
        assert [r.status for r in responses] == [200] * 50
        assert len({r.body for r in responses}) == 1
        assert metrics.builds == 1
        assert metrics.cache_misses == 50
        assert metrics.single_flight_joined == 49


class TestFingerprintRefresh:
    @pytest.mark.parametrize("interval", [-1.0, float("nan")])
    def test_negative_or_nan_refresh_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="refresh interval"):
            ResultServer(refresh_interval=interval)

    def test_refresh_now_reports_no_change_on_stable_source(self):
        async def body(server, client):
            return await server.refresh_now()

        assert with_server(body) is False

    def test_refresh_now_picks_up_a_poisoned_memo(self, monkeypatch):
        from repro.experiments.orchestrator import cache as cache_module

        async def body(server, client):
            before = await client.get("/experiments/example1")
            # Simulate a source edit: the memoized fingerprint no longer
            # matches what hashing the tree produces.
            monkeypatch.setattr(
                cache_module, "_package_fingerprint_cache", "0" * 64
            )
            changed = await server.refresh_now()
            after = await client.get("/experiments/example1")
            return before, changed, after, server.metrics

        before, changed, after, metrics = with_server(body)
        assert changed is True
        assert metrics.fingerprint_refreshes == 1
        # Same source, refreshed fingerprint: the key (and cache entry)
        # still matches, so the second request is a hit on the same ETag.
        assert after.header("etag") == before.header("etag")
        assert after.header("x-cache") == "hit"


class TestWritePathOverSockets:
    """The write plane end-to-end: real sockets, real process pool."""

    def test_submit_poll_fetch_round_trip(self):
        async def body(server, client):
            submit = await client.post("/jobs", {"experiment": "example1"})
            assert submit.status == 202
            accepted = json.loads(submit.body)
            assert submit.header("location") == f"/jobs/{accepted['id']}"
            for _ in range(2000):
                poll = await client.get(f"/jobs/{accepted['id']}")
                snapshot = json.loads(poll.body)
                if snapshot["status"] in ("done", "failed"):
                    break
                await asyncio.sleep(0.01)
            assert snapshot["status"] == "done"
            result = await client.get(f"/jobs/{accepted['id']}/result")
            direct = await client.get("/experiments/example1")
            metrics_response = await client.get("/metrics")
            return result, direct, json.loads(metrics_response.body)

        result, direct, metrics = with_server(body)
        assert result.status == 200
        # The job's result and the read plane serve the same bytes.
        assert result.body == direct.body
        assert metrics["jobs_submitted"] == 1
        assert metrics["jobs_completed"] == 1
        assert metrics["jobs"]["done"] == 1

    def test_ndjson_stream_decodes_over_a_real_connection(self):
        async def body(server, client):
            response = await client.get(
                "/results?experiment=example1&experiment=figure1&format=ndjson"
            )
            direct = await client.get("/experiments/example1")
            return response, direct

        response, direct = with_server(body)
        assert response.status == 200
        assert response.header("transfer-encoding") == "chunked"
        lines = [json.loads(line) for line in response.body.splitlines() if line]
        assert [line["experiment_id"] for line in lines] == ["example1", "figure1"]
        assert lines[0]["result"] == json.loads(direct.body)

    def test_cache_admin_cycle_over_sockets(self):
        async def body(server, client):
            await client.get("/experiments/example1")
            stats = json.loads((await client.get("/cache/stats")).body)
            warm = json.loads(
                (await client.post("/cache/warm", {"experiments": ["figure1"]})).body
            )
            after = json.loads((await client.get("/cache/stats")).body)
            prune = json.loads((await client.post("/cache/prune", {})).body)
            return stats, warm, after, prune

        stats, warm, after, prune = with_server(body)
        assert stats["entries"] == 1
        assert warm["counts"] == {"hit": 0, "miss": 1}
        assert after["entries"] == 2
        assert prune["kept_entries"] == 2

    def test_concurrent_reads_and_writes_all_answer_200(self):
        experiments = ("example1", "figure1")

        async def body(server, client):
            reads, writes = [], []

            async def one_client(first):
                # Every fourth request is a waited POST /jobs, the rest are
                # reads, and the experiment switches every four requests;
                # the clients start at different offsets, so writes and
                # reads of both experiments interleave across clients.
                async with BenchClient("127.0.0.1", server.port) as own:
                    for sequence in range(first, first + 8):
                        experiment_id = experiments[(sequence // 4) % len(experiments)]
                        if sequence % 4 == 0:
                            document = {"experiment": experiment_id, "wait": True}
                            writes.append(await own.post("/jobs", document))
                        else:
                            response = await own.get(f"/experiments/{experiment_id}")
                            reads.append((experiment_id, response))

            await asyncio.gather(*(one_client(first) for first in range(4)))
            return reads, writes, server.metrics

        reads, writes, metrics = with_server(body)
        assert (len(reads), len(writes)) == (24, 8)
        assert {response.status for _, response in reads} == {200}
        assert {response.status for response in writes} == {200}
        snapshots = [json.loads(response.body) for response in writes]
        assert {snapshot["status"] for snapshot in snapshots} == {"done"}
        assert {
            snapshot["tasks"][0]["experiment_id"] for snapshot in snapshots
        } == set(experiments)
        for experiment_id in experiments:
            bodies = {response.body for name, response in reads if name == experiment_id}
            assert len(bodies) == 1, experiment_id
        # Each distinct experiment built once, however its requests arrived.
        assert metrics.builds == len(experiments)
        assert metrics.jobs_submitted == len(writes)

    def test_keep_alive_survives_a_mixed_request_sequence(self):
        async def body(server, client):
            # One connection: read, stream, write, admin — framing must
            # stay aligned across Content-Length and chunked responses.
            first = await client.get("/experiments/example1")
            streamed = await client.get("/results?experiment=example1&format=ndjson")
            job = await client.post(
                "/jobs", {"experiment": "example1", "wait": True}
            )
            health = await client.get("/healthz")
            return first, streamed, job, health

        first, streamed, job, health = with_server(body)
        assert first.status == streamed.status == job.status == health.status == 200
        assert json.loads(job.body)["status"] == "done"
