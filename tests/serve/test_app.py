"""App-layer tests: route-table dispatch (405 + ``Allow``) and the
byte-bounded in-memory body cache."""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, unquote, urlsplit

import pytest

from repro.experiments.orchestrator import ResultCache
from repro.serve.app import ResultApp
from repro.serve.http import HttpRequest
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import ResultService


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


def with_app(test_body, tmp_path, **app_kwargs):
    async def _run():
        with ThreadPoolExecutor(max_workers=2) as executor:
            app = ResultApp(
                ResultService(
                    cache=ResultCache(str(tmp_path / "cache")),
                    executor=executor,
                    metrics=ServiceMetrics(),
                ),
                refresh=_no_refresh,
                **app_kwargs,
            )
            try:
                return await test_body(app)
            finally:
                await app.close()

    return asyncio.run(_run())


class TestMethodNotAllowed:
    @pytest.mark.parametrize(
        "method, path, allow",
        [
            ("POST", "/healthz", "GET"),
            ("POST", "/metrics", "GET"),
            ("POST", "/experiments", "GET"),
            ("POST", "/experiments/example1", "GET"),
            ("PUT", "/jobs", "GET, POST"),
            ("DELETE", "/jobs/j000001", "GET"),
            ("PUT", "/results", "GET, POST"),
            ("POST", "/cache/stats", "GET"),
            ("GET", "/cache/prune", "POST"),
            ("GET", "/cache/invalidate", "POST"),
        ],
    )
    def test_405_carries_the_per_path_allow_header(
        self, tmp_path, method, path, allow
    ):
        async def body(app):
            response = await app.handle(_request(method, path))
            assert response.status == 405
            assert dict(response.headers)["Allow"] == allow
            # Same uniform JSON error envelope as every other failure.
            error = json.loads(response.body)["error"]
            assert error["status"] == 405
            assert method in error["message"]

        with_app(body, tmp_path)

    def test_unrouted_paths_stay_404(self, tmp_path):
        async def body(app):
            for path in ("/nope", "/jobs/j1/extra/deep", "/cache", "/cache/nope"):
                response = await app.handle(_request("GET", path))
                assert response.status == 404, path
            # Warming is a waited POST /jobs; the route of its own is gone.
            response = await app.handle(
                _request("POST", "/cache/warm", {"experiments": ["example1"]})
            )
            assert response.status == 404
            assert app.metrics.builds == 0

        with_app(body, tmp_path)

    def test_trailing_slash_routes_like_the_bare_path(self, tmp_path):
        async def body(app):
            response = await app.handle(_request("GET", "/healthz/"))
            assert response.status == 200

        with_app(body, tmp_path)


class TestNoRequestBackend:
    """A request is (experiment id, params): naming a backend is a 400 like
    any unknown parameter or field, on every route that selects results."""

    @pytest.mark.parametrize(
        "method, path, document, unknown",
        [
            ("GET", "/experiments/example1?backend=python", None, "parameter"),
            ("POST", "/jobs", {"experiment": "example1", "backend": "python"}, "selection field"),
            (
                "POST",
                "/jobs",
                {"experiments": [{"experiment": "example1", "backend": "python"}]},
                "field",
            ),
            ("GET", "/results?experiment=example1&backend=python", None, "selection field"),
            ("POST", "/results", {"experiments": ["example1"], "backend": "python"}, "selection field"),
        ],
    )
    def test_a_named_backend_is_a_400_that_builds_nothing(
        self, tmp_path, method, path, document, unknown
    ):
        async def body(app):
            response = await app.handle(_request(method, path, document))
            return response, app.metrics.builds, app.metrics.jobs_submitted

        response, builds, jobs = with_app(body, tmp_path)
        assert response.status == 400
        message = json.loads(response.body)["error"]["message"]
        assert "unknown" in message and unknown in message and "backend" in message
        assert (builds, jobs) == (0, 0)


class TestBodyCacheByteBound:
    def test_lru_eviction_is_by_total_bytes(self, tmp_path):
        """The regression pin: the bound is bytes, not an entry count."""

        async def body(app):
            app._store_body("a", b"x" * 40)
            app._store_body("b", b"x" * 40)
            app._store_body("c", b"x" * 40)  # 120 bytes: over the 100 bound
            assert app._cached_body("a") is None  # least recently used: gone
            assert app._cached_body("b") is not None
            assert app._cached_body("c") is not None
            assert app._body_cache_total == 80

        with_app(body, tmp_path, body_cache_bytes=100)

    def test_lookup_refreshes_recency(self, tmp_path):
        async def body(app):
            app._store_body("a", b"x" * 40)
            app._store_body("b", b"x" * 40)
            app._cached_body("a")  # touch: "b" becomes the eviction victim
            app._store_body("c", b"x" * 40)
            assert app._cached_body("a") is not None
            assert app._cached_body("b") is None

        with_app(body, tmp_path, body_cache_bytes=100)

    def test_oversized_body_is_served_but_never_cached(self, tmp_path):
        async def body(app):
            app._store_body("small", b"x" * 10)
            app._store_body("huge", b"x" * 1000)
            assert app._cached_body("huge") is None
            # Admitting the oversized body must not have evicted anything.
            assert app._cached_body("small") is not None

        with_app(body, tmp_path, body_cache_bytes=100)

    def test_restore_of_a_key_replaces_its_bytes_once(self, tmp_path):
        async def body(app):
            app._store_body("a", b"x" * 30)
            app._store_body("a", b"y" * 50)
            assert app._cached_body("a") == b"y" * 50
            assert app._body_cache_total == 50

        with_app(body, tmp_path, body_cache_bytes=100)

    def test_drop_body_keeps_the_total_consistent(self, tmp_path):
        async def body(app):
            app._store_body("a", b"x" * 30)
            app._drop_body("a")
            app._drop_body("a")  # double drop is a no-op
            assert app._body_cache_total == 0
            app._store_body("b", b"x" * 100)  # exactly the bound fits
            assert app._cached_body("b") is not None

        with_app(body, tmp_path, body_cache_bytes=100)

    def test_tiny_bound_still_serves_correctly(self, tmp_path):
        async def body(app):
            first = await app.handle(_request("GET", "/experiments/example1"))
            second = await app.handle(_request("GET", "/experiments/example1"))
            assert first.status == second.status == 200
            assert first.body == second.body
            # Nothing fits in one byte, so the second hit came from disk.
            assert app.metrics.memory_hits == 0
            assert app._body_cache_total == 0

        with_app(body, tmp_path, body_cache_bytes=1)

    def test_served_experiment_bodies_flow_through_the_byte_cache(self, tmp_path):
        async def body(app):
            response = await app.handle(_request("GET", "/experiments/example1"))
            assert app._body_cache_total == len(response.body)
            again = await app.handle(_request("GET", "/experiments/example1"))
            assert again.body == response.body
            assert app.metrics.memory_hits == 1

        with_app(body, tmp_path)
