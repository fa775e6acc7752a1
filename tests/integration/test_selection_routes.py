"""One selection, four interfaces: ``run``, ``POST /jobs``, ``GET|POST /results``.

Each interface decodes its selection with ``registry.decode_selection``, so
the same selection must name the same ordered requests everywhere: the
shell through ``repro.cli run --quiet --results``, HTTP through a
:class:`ResultApp` over the cache directory the shell run primed.  The HTTP
routes must also key every request alike.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, unquote, urlencode, urlsplit

import pytest

from repro.cli import main
from repro.experiments.orchestrator import ResultCache, registry
from repro.experiments.orchestrator.registry import MAX_JOB_TASKS
from repro.serve.app import ResultApp
from repro.serve.http import HttpRequest, StreamingHttpResponse
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import ResultService

HTTP_ROUTES = ("POST /jobs", "GET /results", "POST /results")

SELECTIONS = {
    "ids in non-registry order": {"experiments": ["proposition2", "example1", "figure1"]},
    "a tag": {"tag": "proposition"},
    "a tag list": {"tag": ["example", "figure"]},
    "no selection": {},
}


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
    return False


def _tags(selection):
    tags = selection.get("tag", [])
    return [tags] if isinstance(tags, str) else tags


def _run_argv(selection):
    """The ``repro.cli run`` arguments naming ``selection``."""
    tag_options = [argument for tag in _tags(selection) for argument in ("--tag", tag)]
    return tag_options + list(selection.get("experiments", []))


def _http_request(route, selection):
    """``route``'s request for ``selection``, streamed where it has a choice."""
    if route == "POST /jobs":
        return _request("POST", "/jobs", {**selection, "wait": True})
    if route == "POST /results":
        return _request("POST", "/results", {**selection, "format": "ndjson"})
    query = [("experiment", name) for name in selection.get("experiments", [])]
    query += [("tag", tag) for tag in _tags(selection)]
    return _request("GET", "/results?" + urlencode(query + [("format", "ndjson")]))


async def _response_ids(response):
    """The ordered experiment ids a route answered with."""
    if isinstance(response, StreamingHttpResponse):
        payload = b"".join([chunk async for chunk in response.chunks])
        return [json.loads(line)["experiment_id"] for line in payload.splitlines()]
    return [task["experiment_id"] for task in json.loads(response.body)["tasks"]]


def _with_app(cache_dir, test_body):
    async def _run():
        with ThreadPoolExecutor(max_workers=2) as executor:
            service = ResultService(
                cache=ResultCache(str(cache_dir)), executor=executor, metrics=ServiceMetrics()
            )
            app = ResultApp(service, refresh=_no_refresh)
            try:
                return await test_body(app)
            finally:
                await app.close()

    return asyncio.run(_run())


@pytest.fixture
def prepared_keys(monkeypatch):
    """Every (experiment id, cache key) ``prepare_document`` hands out, in order."""
    calls = []
    original = ResultService.prepare_document

    def recording(self, experiment_id, params=None):
        prepared = original(self, experiment_id, params)
        calls.append((prepared.spec.experiment_id, prepared.key))
        return prepared

    monkeypatch.setattr(ResultService, "prepare_document", recording)
    return calls


class TestOneSelectionEverywhere:
    @pytest.mark.parametrize("name", sorted(SELECTIONS))
    def test_every_interface_names_the_same_ordered_requests(
        self, tmp_path, capsys, prepared_keys, name
    ):
        selection = SELECTIONS[name]
        expected = [experiment_id for experiment_id, _ in registry.decode_selection(selection)]
        cache_dir = tmp_path / "cache"
        results = tmp_path / "RESULTS.json"
        argv = ["run", "--quiet", "--cache-dir", str(cache_dir), "--results", str(results)]
        assert main(argv + _run_argv(selection)) == 0
        capsys.readouterr()
        run_ids = json.loads(results.read_text(encoding="utf-8"))["run"]["experiments"]

        async def body(app):
            answers = {}
            for route in HTTP_ROUTES:
                start = len(prepared_keys)
                response = await app.handle(_http_request(route, selection))
                assert response.status == 200, (route, response)
                answers[route] = (await _response_ids(response), prepared_keys[start:])
            return answers

        answers = _with_app(cache_dir, body)
        assert run_ids == expected
        for route, (ids, keyed) in answers.items():
            assert ids == expected, route
            assert [experiment_id for experiment_id, _ in keyed] == expected, route
        keys = {route: [key for _, key in keyed] for route, (_, keyed) in answers.items()}
        assert keys["GET /results"] == keys["POST /results"] == keys["POST /jobs"]

    def test_a_repeated_id_stays_a_separate_request(self, tmp_path, capsys):
        selection = {"experiments": ["example1", "figure1", "example1"]}
        cache_dir = tmp_path / "cache"
        assert main(["run", "--cache-dir", str(cache_dir)] + _run_argv(selection)) == 0
        banners = [
            line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("== ")
        ]

        async def body(app):
            return [
                await _response_ids(await app.handle(_http_request(route, selection)))
                for route in HTTP_ROUTES
            ]

        assert banners == selection["experiments"]
        assert _with_app(cache_dir, body) == [selection["experiments"]] * len(HTTP_ROUTES)

    def test_outputs_keyed_by_id_refuse_a_repeated_id(self, tmp_path, capsys):
        selection = {"experiments": ["example1", "example1"]}
        results = tmp_path / "RESULTS.json"
        argv = ["run", "--quiet", "--results", str(results)] + _run_argv(selection)
        assert main(argv) == 2
        assert "duplicate experiment results" in capsys.readouterr().err
        assert not results.exists()

        async def body(app):
            return [
                await app.handle(_request("POST", "/results", selection)),
                await app.handle(_request("GET", "/results?experiment=example1&experiment=example1")),
                app.metrics.builds,
            ]

        post, get, builds = _with_app(tmp_path / "cache", body)
        assert post.status == get.status == 400
        assert builds == 0

    @pytest.mark.parametrize(
        "selection, status, fragment",
        [
            ({"experiments": ["figure1"], "tag": "proposition"}, 400, "cannot be combined"),
            ({"experiments": ["figure1", "no-such-experiment"]}, 404, "unknown experiment"),
            ({"tag": "no-such-tag"}, 400, "unknown tags"),
        ],
    )
    def test_selection_errors_agree(self, tmp_path, capsys, selection, status, fragment):
        assert main(["run", "--quiet"] + _run_argv(selection)) == 2
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.out == ""

        async def body(app):
            responses = [await app.handle(_http_request(route, selection)) for route in HTTP_ROUTES]
            return responses, app.metrics.builds, app.metrics.jobs_submitted

        responses, builds, jobs = _with_app(tmp_path / "cache", body)
        for route, response in zip(HTTP_ROUTES, responses):
            assert response.status == status, route
            assert fragment in json.loads(response.body)["error"]["message"], route
        assert (builds, jobs) == (0, 0)


class TestSelectionCap:
    @pytest.mark.parametrize("route", ["/jobs", "/results"])
    @pytest.mark.parametrize(
        "document",
        [
            {"experiments": ["example1"] * (MAX_JOB_TASKS + 1)},
            {"experiment": "figure1", "grid": {"step": list(range(1, MAX_JOB_TASKS + 2))}},
        ],
        ids=["entries", "grid"],
    )
    def test_over_the_cap_is_400_before_anything_is_prepared(
        self, tmp_path, prepared_keys, route, document
    ):
        async def body(app):
            return await app.handle(_request("POST", route, document))

        response = _with_app(tmp_path / "cache", body)
        assert response.status == 400
        assert f"(the limit is {MAX_JOB_TASKS})" in json.loads(response.body)["error"]["message"]
        assert prepared_keys == []


class TestRunPrimesTheServer:
    def test_a_quiet_run_leaves_every_read_a_hit(self, tmp_path, capsys):
        """What ``cache --warm`` promised: a server on a primed directory
        answers its first read from the cache."""
        cache_dir = tmp_path / "cache"
        assert main(["run", "--quiet", "--cache-dir", str(cache_dir), "example1"]) == 0
        assert capsys.readouterr().out == ""

        async def body(app):
            response = await app.handle(_request("GET", "/experiments/example1"))
            return response, app.metrics.builds

        response, builds = _with_app(cache_dir, body)
        assert response.status == 200
        assert dict(response.headers)["X-Cache"] == "hit"
        assert builds == 0
