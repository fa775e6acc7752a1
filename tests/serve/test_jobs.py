"""Write-path tests: the job store and the ``/jobs`` plane of the app.

The app tests drive :meth:`ResultApp.handle` directly with hand-built
:class:`HttpRequest` objects over a thread-pool service (the same pattern as
``test_degradation.py``); the real process pool and real sockets are covered
end-to-end in ``test_server.py``.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

import pytest

import repro.serve.service as service_module
from repro.experiments.orchestrator import ResultCache, execute_spec, registry
from repro.experiments.orchestrator.registry import MAX_JOB_TASKS
from repro.serve.app import ResultApp, json_body
from repro.serve.breaker import CircuitBreaker
from repro.serve.http import HttpRequest
from repro.serve.jobs import Job, JobStore, JobTask
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import ResultService
from repro.testing.chaos import CHAOS_ENV_VAR, reset_chaos

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _request(method, path, document=None, headers=None):
    split = urlsplit(path)
    body = b"" if document is None else json.dumps(document).encode("utf-8")
    return HttpRequest(
        method=method,
        target=path,
        path=unquote(split.path),
        query=parse_qs(split.query, keep_blank_values=True),
        version="HTTP/1.1",
        headers={name.lower(): value for name, value in (headers or {}).items()},
        body=body,
    )


async def _no_refresh():
    """The server's refresh hook, for an app built without a server."""
    return False


def _make_app(tmp_path, executor, **kwargs):
    service = ResultService(
        cache=ResultCache(str(tmp_path / "cache")),
        executor=executor,
        metrics=ServiceMetrics(),
        **kwargs,
    )
    return ResultApp(service, refresh=_no_refresh)


def with_app(test_body, tmp_path, **service_kwargs):
    async def _run():
        with ThreadPoolExecutor(max_workers=2) as executor:
            app = _make_app(tmp_path, executor, **service_kwargs)
            try:
                return await test_body(app)
            finally:
                await app.close()

    return asyncio.run(_run())


async def _poll_until_finished(app, job_id, attempts=2000):
    for _ in range(attempts):
        response = await app.handle(_request("GET", f"/jobs/{job_id}"))
        assert response.status == 200
        snapshot = json.loads(response.body)
        if snapshot["status"] in ("done", "failed"):
            return snapshot
        await asyncio.sleep(0.005)
    raise AssertionError(f"job {job_id} never finished")


class TestJobStore:
    def _task(self, app):
        prepared = app.service.prepare("example1", {})
        return JobTask(prepared=prepared)

    def test_ids_are_sequential(self, tmp_path):
        async def body(app):
            store = JobStore()
            first = store.create([self._task(app)])
            second = store.create([self._task(app)])
            assert (first.job_id, second.job_id) == ("j000001", "j000002")
            assert store.get("j000001") is first
            assert store.get("nope") is None

        with_app(body, tmp_path)

    def test_history_limit_validation(self):
        with pytest.raises(ValueError):
            JobStore(history_limit=0)

    def test_eviction_drops_oldest_finished_only(self, tmp_path):
        async def body(app):
            store = JobStore(history_limit=2, clock=FakeClock())
            active = store.create([self._task(app)])
            store.mark_running(active)
            finished = []
            for _ in range(3):
                job = store.create([self._task(app)])
                store.mark_done(job)
                finished.append(job)
            # The running job survives even though it is the oldest; the
            # oldest *finished* jobs go first.
            assert store.get(active.job_id) is active
            assert store.get(finished[0].job_id) is None
            assert store.get(finished[-1].job_id) is finished[-1]
            assert store.counts()["evicted"] == 2
            assert store.counts()["retained"] == 2

        with_app(body, tmp_path)

    def test_eviction_reads_only_the_jobs_it_evicts(self, tmp_path, monkeypatch):
        """Eviction order, count and active retention match a full scan."""

        async def body(app):
            rng = random.Random(3)
            store = JobStore(history_limit=5, clock=FakeClock())
            reference = []  # (job, evicted?) in creation order
            reads = []
            finished = Job.finished

            monkeypatch.setattr(
                Job, "finished", property(lambda job: reads.append(job) or finished.fget(job))
            )
            for _ in range(200):
                job = store.create([self._task(app)])
                # Reference: the full scan this store used to make.
                retained = [entry for entry, gone in reference if not gone]
                retained.append(job)
                excess = len(retained) - store.history_limit
                doomed = [entry for entry in retained if entry.status in ("done", "failed")]
                doomed = doomed[: max(0, excess)]
                reference.append((job, False))
                reference[:] = [(entry, gone or entry in doomed) for entry, gone in reference]
                assert [entry.job_id for entry in store.jobs()] == [
                    entry.job_id for entry, gone in reference if not gone
                ]
                # Finish up to two random active jobs, leaving a few active.
                for _ in range(2):
                    active = [entry for entry in store.jobs() if entry.status == "queued"]
                    if active and rng.random() < 0.6:
                        store.mark_done(rng.choice(active))
            assert store.evicted == sum(gone for _, gone in reference)
            assert store.evicted > 150
            # One read per evicted job plus the active ones scanned past.
            assert len(reads) < 2 * store.evicted

        with_app(body, tmp_path)

    def test_all_active_jobs_may_exceed_the_limit(self, tmp_path):
        async def body(app):
            store = JobStore(history_limit=1, clock=FakeClock())
            jobs = [store.create([self._task(app)]) for _ in range(3)]
            for job in jobs:
                store.mark_running(job)
            assert store.counts()["retained"] == 3
            assert store.counts()["evicted"] == 0

        with_app(body, tmp_path)

    def test_counts_shape(self, tmp_path):
        async def body(app):
            store = JobStore(history_limit=8, clock=FakeClock())
            done = store.create([self._task(app)])
            store.mark_done(done)
            failed = store.create([self._task(app)])
            store.mark_failed(failed, "boom")
            store.create([self._task(app)])
            assert store.counts() == {
                "retained": 3,
                "history_limit": 8,
                "evicted": 0,
                "queued": 1,
                "running": 0,
                "done": 1,
                "failed": 1,
            }
            assert failed.error == "boom"
            assert failed.snapshot()["status"] == "failed"

        with_app(body, tmp_path)


class TestJobSubmission:
    def test_submit_poll_result_round_trip_matches_golden(self, tmp_path):
        """POST → 202 → poll → result bytes identical to the golden file."""

        async def body(app):
            submit = await app.handle(
                _request("POST", "/jobs", {"experiment": "safety_violation"})
            )
            assert submit.status == 202
            accepted = json.loads(submit.body)
            assert accepted["status"] in ("queued", "running", "done")
            assert dict(submit.headers)["Location"] == accepted["path"]
            snapshot = await _poll_until_finished(app, accepted["id"])
            assert snapshot["status"] == "done"
            assert snapshot["tasks_done"] == snapshot["tasks_total"] == 1
            assert snapshot["tasks"][0]["cache"] == "miss"
            result = await app.handle(
                _request("GET", accepted["result_path"])
            )
            return result

        result = with_app(body, tmp_path)
        assert result.status == 200
        golden = (GOLDEN_DIR / "safety_violation.json").read_bytes()
        assert result.body == golden

    def test_wait_submission_returns_the_finished_snapshot(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request("POST", "/jobs", {"experiment": "example1", "wait": True})
            )
            assert response.status == 200
            snapshot = json.loads(response.body)
            assert snapshot["status"] == "done"
            assert app.metrics.jobs_submitted == 1
            assert app.metrics.jobs_completed == 1
            index = await app.handle(_request("GET", "/jobs"))
            listing = json.loads(index.body)
            assert listing["counts"]["done"] == 1
            assert listing["jobs"][0]["id"] == snapshot["id"]

        with_app(body, tmp_path)

    @pytest.mark.parametrize(
        "experiment",
        ("campaign_budget", "safety_violation", "two_class", "vulnerability_window", "component_exposure"),
    )
    def test_finished_job_result_is_a_memory_hit(self, tmp_path, experiment):
        """The job primes its body: the GET after completion reads no disk."""

        async def body(app):
            response = await app.handle(
                _request(
                    "POST",
                    "/jobs",
                    {"experiment": experiment, "params": {"seed": 7}, "wait": True},
                )
            )
            snapshot = json.loads(response.body)
            assert snapshot["status"] == "done"
            result = await app.handle(_request("GET", snapshot["result_path"]))
            assert result.status == 200
            assert app.metrics.memory_hits == 1
            assert app.metrics.builds == 1
            return result.body

        served = with_app(body, tmp_path)
        spec = registry.get_spec(experiment)
        built = execute_spec(spec, spec.params_type(seed=7))
        assert served == json_body(built.canonical_dict())

    def test_task_snapshots_name_no_backend(self, tmp_path):
        """A repeat submission is a hit, and no snapshot claims a backend."""

        async def body(app):
            snapshots = []
            for _ in range(2):
                response = await app.handle(
                    _request("POST", "/jobs", {"experiment": "two_class", "wait": True})
                )
                snapshots.append(json.loads(response.body)["tasks"][0])
            return snapshots, app.metrics.builds

        (first, second), builds = with_app(body, tmp_path)
        assert (first["cache"], second["cache"], builds) == ("miss", "hit", 1)
        for task in (first, second):
            assert sorted(task) == [
                "cache", "error", "experiment_id", "key", "params", "path", "status"
            ]

    @staticmethod
    def _result_after_tripping_the_breaker(tmp_path, submit):
        """GET a finished ``wait`` job's result with the breaker open.

        ``submit`` posts the job; the result must then come from memory, as
        an open breaker turns any second build into a 503.
        """
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=30.0, clock=FakeClock()
        )

        async def body(app):
            snapshot = json.loads((await submit(app)).body)
            assert snapshot["status"] == "done"
            breaker.record_failure()
            assert breaker.state == "open"
            result = await app.handle(_request("GET", snapshot["result_path"]))
            assert result.status == 200
            assert app.metrics.memory_hits == 1
            assert app.metrics.builds == 1
            key = app.jobs.get(snapshot["id"]).tasks[0].prepared.key
            return result.body, app.service.cache.load(key)

        served, entry = with_app(body, tmp_path, breaker=breaker)
        assert entry is None  # the GET could not have been served from disk
        spec = registry.get_spec("example1")
        assert served == json_body(execute_spec(spec).canonical_dict())

    def test_job_result_survives_a_refresh_during_its_build(
        self, tmp_path, monkeypatch
    ):
        """The entry goes under the refreshed key; the job's body still serves."""
        from repro.experiments.orchestrator.cache import (
            invalidate_code_fingerprint,
            set_code_fingerprint,
        )

        async def submit(app):
            prepare = app.service.prepare_document

            def prepare_then_refresh(*args, **kwargs):
                prepared = prepare(*args, **kwargs)
                set_code_fingerprint("0" * 64)
                return prepared

            monkeypatch.setattr(
                app.service, "prepare_document", prepare_then_refresh
            )
            return await app.handle(
                _request("POST", "/jobs", {"experiment": "example1", "wait": True})
            )

        try:
            self._result_after_tripping_the_breaker(tmp_path, submit)
        finally:
            invalidate_code_fingerprint()

    def test_job_result_survives_a_corrupt_cache_write(self, tmp_path, monkeypatch):
        async def submit(app):
            monkeypatch.setenv(CHAOS_ENV_VAR, "corrupt:1@cache-write")
            reset_chaos()
            try:
                return await app.handle(
                    _request("POST", "/jobs", {"experiment": "example1", "wait": True})
                )
            finally:
                monkeypatch.delenv(CHAOS_ENV_VAR)
                reset_chaos()

        self._result_after_tripping_the_breaker(tmp_path, submit)

    def test_duplicate_submits_coalesce_through_single_flight(self, tmp_path):
        """N identical submissions cost exactly one build."""

        async def body(app):
            responses = await asyncio.gather(
                *(
                    app.handle(
                        _request(
                            "POST", "/jobs", {"experiment": "example1", "wait": True}
                        )
                    )
                    for _ in range(5)
                )
            )
            assert [r.status for r in responses] == [200] * 5
            assert all(
                json.loads(r.body)["status"] == "done" for r in responses
            )
            assert app.metrics.jobs_submitted == 5
            assert app.metrics.jobs_completed == 5
            return app.metrics

        metrics = with_app(body, tmp_path)
        assert metrics.builds == 1
        assert metrics.single_flight_joined >= 1

    def test_breaker_open_submission_is_503_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        def _boom(experiment_id, params_doc, backend):
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(service_module, "_pool_execute", _boom)
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30.0, clock=clock)

        async def body(app):
            first = await app.handle(
                _request("POST", "/jobs", {"experiment": "example1", "wait": True})
            )
            assert first.status == 200
            assert json.loads(first.body)["status"] == "failed"
            assert app.metrics.jobs_failed == 1
            # The breaker is open now: submissions are refused at the door.
            second = await app.handle(
                _request("POST", "/jobs", {"experiment": "example1"})
            )
            assert second.status == 503
            assert dict(second.headers)["Retry-After"] == "30"
            assert "breaker" in json.loads(second.body)["error"]["message"]
            assert app.metrics.jobs_submitted == 1  # the rejected one never counted
            # Reads still serve: /healthz reports the degradation honestly.
            health = await app.handle(_request("GET", "/healthz"))
            assert json.loads(health.body)["breaker"] == "open"

        with_app(body, tmp_path, breaker=breaker)

    def test_failed_job_records_the_task_error(self, tmp_path, monkeypatch):
        def _boom(experiment_id, params_doc, backend):
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(service_module, "_pool_execute", _boom)

        async def body(app):
            response = await app.handle(
                _request("POST", "/jobs", {"experiment": "example1", "wait": True})
            )
            snapshot = json.loads(response.body)
            assert snapshot["status"] == "failed"
            assert "injected build failure" in snapshot["error"]
            assert snapshot["tasks"][0]["status"] == "failed"
            result = await app.handle(
                _request("GET", f"/jobs/{snapshot['id']}/result")
            )
            assert result.status == 500
            assert "failed" in json.loads(result.body)["error"]["message"]

        with_app(body, tmp_path)

    def test_result_of_unfinished_job_is_409(self, tmp_path, monkeypatch):
        release = threading.Event()
        real_execute = service_module._pool_execute

        def _slow(experiment_id, params_doc, backend):
            release.wait(30.0)
            return real_execute(experiment_id, params_doc, backend)

        monkeypatch.setattr(service_module, "_pool_execute", _slow)

        async def body(app):
            submit = await app.handle(
                _request("POST", "/jobs", {"experiment": "example1"})
            )
            job_id = json.loads(submit.body)["id"]
            early = await app.handle(_request("GET", f"/jobs/{job_id}/result"))
            assert early.status == 409
            release.set()
            snapshot = await _poll_until_finished(app, job_id)
            assert snapshot["status"] == "done"
            late = await app.handle(_request("GET", f"/jobs/{job_id}/result"))
            assert late.status == 200

        with_app(body, tmp_path)

    def test_unknown_job_is_404(self, tmp_path):
        async def body(app):
            response = await app.handle(_request("GET", "/jobs/j999999"))
            assert response.status == 404
            result = await app.handle(_request("GET", "/jobs/j999999/result"))
            assert result.status == 404

        with_app(body, tmp_path)


class TestGridSubmission:
    def test_grid_expands_to_one_task_per_point(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request(
                    "POST",
                    "/jobs",
                    {
                        "experiment": "figure1",
                        "grid": {"max_residual_miners": [10, 20, 30]},
                        "wait": True,
                    },
                )
            )
            snapshot = json.loads(response.body)
            assert snapshot["status"] == "done"
            assert snapshot["tasks_total"] == 3
            params = [task["params"]["max_residual_miners"] for task in snapshot["tasks"]]
            assert params == [10, 20, 30]
            keys = {task["key"] for task in snapshot["tasks"]}
            assert len(keys) == 3
            result = await app.handle(
                _request("GET", f"/jobs/{snapshot['id']}/result")
            )
            document = json.loads(result.body)
            assert document["job"] == snapshot["id"]
            assert len(document["results"]) == 3

        with_app(body, tmp_path)

    def test_grid_axis_overlapping_params_is_400(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request(
                    "POST",
                    "/jobs",
                    {
                        "experiment": "figure1",
                        "params": {"max_residual_miners": 10},
                        "grid": {"max_residual_miners": [10, 20]},
                    },
                )
            )
            assert response.status == 400
            assert "overlap" in json.loads(response.body)["error"]["message"]

        with_app(body, tmp_path)

    def test_grid_over_the_task_limit_is_400(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request(
                    "POST",
                    "/jobs",
                    {
                        "experiment": "figure1",
                        "grid": {
                            "max_residual_miners": list(range(MAX_JOB_TASKS + 1))
                        },
                    },
                )
            )
            assert response.status == 400
            assert app.metrics.jobs_submitted == 0

        with_app(body, tmp_path)


class TestSubmissionValidation:
    @pytest.mark.parametrize(
        "document, fragment",
        [
            ({"experiment": "example1", "bogus": 1}, "bogus"),
            ({"experiment": 7}, "experiment id string"),
            ({"experiment": "example1", "wait": "yes"}, "'wait'"),
            ({"experiments": "example1"}, "must be a list"),
            ({"experiments": []}, "one or more"),
            ({"experiments": [7]}, "experiments[0]"),
            (
                {"experiments": ["example1"], "grid": {"x": [1]}},
                "'grid' applies only to a single 'experiment'",
            ),
            ({"experiment": "example1", "tag": "example"}, "cannot be combined"),
            ({"tag": "no-such-tag"}, "unknown tags"),
            ({"experiment": "example1", "grid": {}}, "'grid'"),
            (
                {"experiment": "figure1", "grid": {"max_residual_miners": []}},
                "non-empty list",
            ),
        ],
    )
    def test_invalid_documents_are_400(self, tmp_path, document, fragment):
        async def body(app):
            response = await app.handle(_request("POST", "/jobs", document))
            assert response.status == 400, response.body
            assert fragment in json.loads(response.body)["error"]["message"]

        with_app(body, tmp_path)

    def test_unknown_experiment_is_404(self, tmp_path):
        async def body(app):
            response = await app.handle(
                _request("POST", "/jobs", {"experiment": "does-not-exist"})
            )
            assert response.status == 404

        with_app(body, tmp_path)

    def test_json_typed_params_are_strict(self, tmp_path):
        async def body(app):
            # JSON documents carry real types; "10" for an int param is a
            # client bug, unlike in query strings where everything is text.
            response = await app.handle(
                _request(
                    "POST",
                    "/jobs",
                    {
                        "experiment": "figure1",
                        "params": {"max_residual_miners": "10"},
                    },
                )
            )
            assert response.status == 400

        with_app(body, tmp_path)

    def test_tuple_params_take_json_arrays(self, tmp_path):
        """A JSON array fills a ``Tuple[int, ...]`` field, element by element."""

        async def body(app):
            response = await app.handle(
                _request(
                    "POST",
                    "/jobs",
                    {
                        "experiment": "proposition1",
                        "params": {"kappas": [2, 3]},
                        "wait": True,
                    },
                )
            )
            assert response.status == 200
            snapshot = json.loads(response.body)
            assert snapshot["status"] == "done"
            result = await app.handle(_request("GET", snapshot["result_path"]))
            assert result.status == 200
            return result.body

        spec = registry.get_spec("proposition1")
        expected = execute_spec(spec, spec.params_type(kappas=(2, 3))).canonical_dict()
        assert with_app(body, tmp_path) == json_body(expected)

    @pytest.mark.parametrize("kappas", [[2, "x"], [True], "2,3"])
    def test_malformed_tuple_params_are_400(self, tmp_path, kappas):
        async def body(app):
            response = await app.handle(
                _request(
                    "POST",
                    "/jobs",
                    {"experiment": "proposition1", "params": {"kappas": kappas}},
                )
            )
            assert response.status == 400

        with_app(body, tmp_path)

    def test_non_object_body_is_400(self, tmp_path):
        async def body(app):
            response = await app.handle(_request("POST", "/jobs", [1, 2]))
            assert response.status == 400
            garbage = _request("POST", "/jobs")
            garbage = HttpRequest(
                method="POST",
                target="/jobs",
                path="/jobs",
                query={},
                version="HTTP/1.1",
                headers={},
                body=b"not json",
            )
            response = await app.handle(garbage)
            assert response.status == 400

        with_app(body, tmp_path)
