"""Bulk ``/results`` (JSON + NDJSON streaming) and cache-admin plane tests.

The NDJSON test is the write-path acceptance check: the stream of a sweep
must carry exactly the canonical results a sharded orchestrator run merges
into ``RESULTS.json`` — the serving plane and the batch plane are two views
of the same content-addressed bytes.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, unquote, urlsplit

import pytest

import repro.serve.service as service_module
from repro.backend import get_backend
from repro.experiments.orchestrator import (
    ResultCache,
    merge_results_documents,
    registry,
    results_document,
    run_experiments,
    select_shard,
)
from repro.serve.app import ResultApp
from repro.serve.http import HttpRequest, StreamingHttpResponse
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import ResultService

SWEEP = ["example1", "figure1", "proposition1", "proposition2"]


def _request(method, path, document=None):
    split = urlsplit(path)
    body = b"" if document is None else json.dumps(document).encode("utf-8")
    return HttpRequest(
        method=method,
        target=path,
        path=unquote(split.path),
        query=parse_qs(split.query, keep_blank_values=True),
        version="HTTP/1.1",
        headers={},
        body=body,
    )


async def _no_refresh():
    """The server's refresh hook, for an app built without a server."""
    return False


def with_app(test_body, tmp_path, **service_kwargs):
    async def _run():
        with ThreadPoolExecutor(max_workers=2) as executor:
            app = ResultApp(
                ResultService(
                    cache=ResultCache(str(tmp_path / "cache")),
                    executor=executor,
                    metrics=ServiceMetrics(),
                    **service_kwargs,
                ),
                refresh=_no_refresh,
            )
            try:
                return await test_body(app)
            finally:
                await app.close()

    return asyncio.run(_run())


async def _ndjson_lines(response):
    assert isinstance(response, StreamingHttpResponse)
    payload = b""
    async for chunk in response.chunks:
        payload += chunk
    return [json.loads(line) for line in payload.splitlines() if line]


class TestResultsDocument:
    def test_get_with_explicit_experiments(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request("GET", "/results?experiment=example1&experiment=figure1")
            )
            assert response.status == 200
            document = json.loads(response.body)
            assert sorted(document["results"]) == ["example1", "figure1"]
            assert app.metrics.bulk_results_served == 2

        with_app(body, tmp_path)

    def test_post_document_equals_get_query(self, tmp_path):
        async def body(app):
            via_get = await app.handle(_request("GET", "/results?experiment=example1"))
            via_post = await app.handle(
                _request("POST", "/results", {"experiments": ["example1"]})
            )
            assert via_get.body == via_post.body

        with_app(body, tmp_path)

    def test_tag_selection(self, tmp_path):
        async def body(app):
            tag = registry.known_tags()[0]
            expected = [
                spec.experiment_id
                for spec in registry.all_specs()
                if tag in spec.tags
            ]
            response = await app.handle(_request("GET", f"/results?tag={tag}"))
            document = json.loads(response.body)
            assert sorted(document["results"]) == sorted(expected)

        with_app(body, tmp_path)

    def test_unknown_tag_is_400(self, tmp_path):
        async def body(app):
            response = await app.handle(_request("GET", "/results?tag=nope"))
            assert response.status == 400
            assert "unknown tag" in json.loads(response.body)["error"]["message"]

        with_app(body, tmp_path)

    def test_duplicate_experiments_in_a_document_are_400(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request(
                    "POST", "/results", {"experiments": ["example1", "example1"]}
                )
            )
            assert response.status == 400
            assert "ndjson" in json.loads(response.body)["error"]["message"]

        with_app(body, tmp_path)

    def test_bad_format_is_400(self, tmp_path):
        async def body(app):
            response = await app.handle(_request("GET", "/results?format=xml"))
            assert response.status == 400

        with_app(body, tmp_path)

    def test_unknown_query_parameter_is_400(self, tmp_path):
        async def body(app):
            response = await app.handle(_request("GET", "/results?bogus=1"))
            assert response.status == 400
            assert "bogus" in json.loads(response.body)["error"]["message"]

        with_app(body, tmp_path)


class TestNdjsonStreaming:
    def test_sharded_sweep_stream_matches_merged_results_json(self, tmp_path):
        """The acceptance check: NDJSON lines == merged shard documents.

        The same sweep is run twice — once through the orchestrator as two
        shards merged into one ``RESULTS.json`` document, once through the
        serving plane as an NDJSON stream — and the result sets must be
        identical, byte-for-value.
        """
        specs = [registry.get_spec(experiment_id) for experiment_id in SWEEP]
        backend = get_backend().name
        shard_documents = []
        for index in (1, 2):
            shard = select_shard(specs, index, 2)
            results = run_experiments(shard)
            shard_documents.append(
                results_document(results, shard=f"{index}/2", backend=backend)
            )
        merged = merge_results_documents(shard_documents)

        async def body(app):
            response = await app.handle(
                _request(
                    "POST",
                    "/results",
                    {"experiments": SWEEP, "format": "ndjson"},
                )
            )
            assert response.status == 200
            assert dict(response.headers)["X-Result-Count"] == str(len(SWEEP))
            return await _ndjson_lines(response)

        lines = with_app(body, tmp_path)
        assert [line["experiment_id"] for line in lines] == SWEEP
        streamed = {line["experiment_id"]: line["result"] for line in lines}
        assert streamed == merged["results"]

    def test_stream_is_in_memory_after_warmup(self, tmp_path):
        async def body(app):
            first = await app.handle(
                _request("GET", "/results?experiment=example1&format=ndjson")
            )
            # The stream is lazy: the build happens while chunks are drained.
            await _ndjson_lines(first)
            builds_after_first = app.metrics.builds
            response = await app.handle(
                _request("GET", "/results?experiment=example1&format=ndjson")
            )
            lines = await _ndjson_lines(response)
            assert len(lines) == 1
            assert app.metrics.builds == builds_after_first  # pure cache hit

        with_app(body, tmp_path)

    def test_mid_stream_failure_emits_a_terminal_error_line(
        self, tmp_path, monkeypatch
    ):
        real_execute = service_module._pool_execute
        calls = []

        def _second_fails(experiment_id, params_doc, backend):
            calls.append(experiment_id)
            if len(calls) > 1:
                raise RuntimeError("injected build failure")
            return real_execute(experiment_id, params_doc, backend)

        monkeypatch.setattr(service_module, "_pool_execute", _second_fails)

        async def body(app):
            response = await app.handle(
                _request(
                    "GET",
                    "/results?experiment=example1&experiment=figure1&format=ndjson",
                )
            )
            return await _ndjson_lines(response)

        lines = with_app(body, tmp_path)
        assert lines[0]["experiment_id"] == "example1"
        assert lines[1]["error"]["status"] == 500
        assert len(lines) == 2  # the stream stops at the error line


class TestCacheAdmin:
    def test_stats_counts_entries_over_http(self, tmp_path):
        async def body(app):
            empty = json.loads((await app.handle(_request("GET", "/cache/stats"))).body)
            assert empty["entries"] == 0
            await app.handle(_request("GET", "/experiments/example1"))
            warm = json.loads((await app.handle(_request("GET", "/cache/stats"))).body)
            assert warm["entries"] == 1
            assert warm["directory"] == app.service.cache.directory
            assert app.metrics.cache_admin_ops == 2

        with_app(body, tmp_path)

    def test_warm_then_prune_cycle(self, tmp_path):
        """A waited ``POST /jobs`` warms the cache; its tasks count the hits."""

        async def warm(app):
            response = await app.handle(
                _request("POST", "/jobs", {"experiments": SWEEP, "wait": True})
            )
            tasks = json.loads(response.body)["tasks"]
            counts = {"hit": 0, "miss": 0}
            for task in tasks:
                counts[task["cache"]] += 1
            return counts, tasks

        async def body(app):
            first, _ = await warm(app)
            assert first == {"hit": 0, "miss": len(SWEEP)}
            second, tasks = await warm(app)
            assert second == {"hit": len(SWEEP), "miss": 0}
            assert [task["experiment_id"] for task in tasks] == SWEEP
            pruned = json.loads(
                (await app.handle(_request("POST", "/cache/prune"))).body
            )
            # Everything is live (same fingerprint), so prune keeps it all.
            assert pruned["removed_entries"] == 0
            assert pruned["kept_entries"] == len(SWEEP)

        with_app(body, tmp_path)

    def test_invalidate_one_key_forces_a_rebuild(self, tmp_path):
        async def body(app):
            first = await app.handle(_request("GET", "/experiments/example1"))
            key = dict(first.headers)["ETag"].strip('"')
            builds = app.metrics.builds
            removed = json.loads(
                (
                    await app.handle(
                        _request("POST", "/cache/invalidate", {"key": key})
                    )
                ).body
            )
            assert removed == {"action": "invalidate", "key": key, "removed": True}
            # A second invalidate of the already-deleted key finds nothing.
            missing = json.loads(
                (
                    await app.handle(
                        _request("POST", "/cache/invalidate", {"key": key})
                    )
                ).body
            )
            assert missing["removed"] is False
            again = await app.handle(_request("GET", "/experiments/example1"))
            assert dict(again.headers)["X-Cache"] == "miss"
            assert app.metrics.builds == builds + 1
            assert again.body == first.body  # deterministic rebuild

        with_app(body, tmp_path)

    def test_invalidate_without_key_uses_the_refresh_hook(self, tmp_path):
        calls = []

        async def body(app):
            async def fake_refresh():
                calls.append(True)
                return True

            app._refresh = fake_refresh
            await app.handle(_request("GET", "/experiments/example1"))
            assert len(app._body_cache) == 1
            response = json.loads(
                (await app.handle(_request("POST", "/cache/invalidate", {}))).body
            )
            assert response == {"action": "invalidate", "fingerprint_changed": True}
            assert calls == [True]
            # A fingerprint change makes every retained body unreachable.
            assert len(app._body_cache) == 0

        with_app(body, tmp_path)

    def test_admin_documents_reject_unknown_fields(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request("POST", "/cache/invalidate", {"keys": []})
            )
            assert response.status == 400

        with_app(body, tmp_path)
