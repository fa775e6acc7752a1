"""Graceful-degradation tests: circuit breaker, build deadlines, single-flight.

The breaker walks its closed → open → half-open → closed cycle against an
injectable fake clock (no sleeping), and the service-level tests show the
full degradation story: repeated build failures turn into fast 503s with a
``Retry-After`` hint, ``/healthz`` reports ``degraded``, and one successful
probe restores normal service without a restart.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.service as service_module
from repro.core.exceptions import ServeError
from repro.experiments.orchestrator import ResultCache
from repro.serve.app import ResultApp
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.http import HttpRequest
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import ResultService


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)
        # NaN would keep a tripped breaker open forever while it answers
        # Retry-After: 1; inf would overflow the Retry-After header.
        for reset_timeout in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                CircuitBreaker(reset_timeout=reset_timeout)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == CLOSED
            assert breaker.allow_build()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow_build()
        assert breaker.times_opened == 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_retry_after_counts_down_with_the_clock(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=30.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(30.0)
        clock.advance(12.0)
        assert breaker.retry_after() == pytest.approx(18.0)
        assert breaker.retry_after_header() == "18"

    def test_retry_after_header_is_at_least_one_second(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(4.99)
        assert breaker.retry_after_header() == "1"

    def test_half_open_allows_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow_build()  # the probe
        assert not breaker.allow_build()  # everyone else keeps waiting

    def test_probe_success_closes_without_a_restart(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow_build()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow_build()
        assert breaker.retry_after() == 0.0

    def test_probe_failure_reopens_for_another_full_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=10.0, clock=clock
        )
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow_build()
        breaker.record_failure()  # one failed probe re-trips immediately
        assert breaker.state == OPEN
        assert breaker.retry_after() == pytest.approx(10.0)
        assert breaker.times_opened == 2

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=7.0)
        snapshot = breaker.snapshot()
        assert snapshot["state"] == CLOSED
        assert snapshot["failure_threshold"] == 2
        assert snapshot["reset_timeout_seconds"] == 7.0
        assert snapshot["times_opened"] == 0


async def _no_refresh():
    """The server's refresh hook, for an app built without a server."""
    return False


def _make_service(tmp_path, executor, **kwargs):
    return ResultService(
        cache=ResultCache(str(tmp_path / "cache")),
        executor=executor,
        metrics=ServiceMetrics(),
        **kwargs,
    )


def _boom(experiment_id, params_doc, backend):
    raise RuntimeError("injected build failure")


def _get(path):
    return HttpRequest(
        method="GET", target=path, path=path, query={}, version="HTTP/1.1", headers={}
    )


class TestServiceDegradation:
    def test_breaker_opens_then_503_with_retry_after(self, tmp_path, monkeypatch):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=30.0, clock=clock
        )
        monkeypatch.setattr(service_module, "_pool_execute", _boom)

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                service = _make_service(tmp_path, executor, breaker=breaker)
                prepared = service.prepare("example1", {})
                for _ in range(2):
                    with pytest.raises(RuntimeError):
                        await service.fetch(prepared)
                assert service.health() == {"status": "degraded", "breaker": "open"}
                with pytest.raises(ServeError) as excinfo:
                    await service.fetch(prepared)
                return service, excinfo.value

        service, error = asyncio.run(scenario())
        assert error.status == 503
        assert dict(error.headers)["Retry-After"] == "30"
        assert service.metrics.build_failures == 2
        assert service.metrics.builds_rejected == 1
        # The rejection is not itself a build failure.
        assert service.metrics.builds == 2

    def test_probe_recovers_service_without_restart(self, tmp_path, monkeypatch):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=30.0, clock=clock
        )
        monkeypatch.setattr(service_module, "_pool_execute", _boom)

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                service = _make_service(tmp_path, executor, breaker=breaker)
                prepared = service.prepare("example1", {})
                with pytest.raises(RuntimeError):
                    await service.fetch(prepared)
                with pytest.raises(ServeError):
                    await service.fetch(prepared)  # open: rejected fast
                # The fault clears and the reset window elapses.
                monkeypatch.setattr(
                    service_module, "_pool_execute", service_module._pool_execute
                )
                monkeypatch.undo()
                clock.advance(30.0)
                assert service.health()["breaker"] == "half-open"
                result, state = await service.fetch(prepared)  # the probe
                assert state == "miss"
                assert service.health() == {"status": "ok", "breaker": "closed"}
                # Later identical requests are plain cache hits.
                _, second_state = await service.fetch(prepared)
                assert second_state == "hit"
                return service

        service = asyncio.run(scenario())
        assert service.breaker.times_opened == 1

    def test_build_deadline_answers_504_and_counts_a_failure(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()

        def _slow(experiment_id, params_doc, backend):
            release.wait(30.0)
            raise AssertionError("the deadline should have fired first")

        monkeypatch.setattr(service_module, "_pool_execute", _slow)

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                service = _make_service(tmp_path, executor, build_deadline=0.05)
                prepared = service.prepare("example1", {})
                with pytest.raises(ServeError) as excinfo:
                    await service.fetch(prepared)
                release.set()
                return service, excinfo.value

        service, error = asyncio.run(scenario())
        assert error.status == 504
        assert "deadline" in str(error)
        assert service.metrics.build_timeouts == 1
        assert service.metrics.build_failures == 1  # the breaker counts 504s

    def test_single_flight_failure_releases_every_waiter_and_the_gate(
        self, tmp_path, monkeypatch
    ):
        started = threading.Event()
        release = threading.Event()

        def _blocking_boom(experiment_id, params_doc, backend):
            started.set()
            release.wait(30.0)
            raise RuntimeError("late failure")

        monkeypatch.setattr(service_module, "_pool_execute", _blocking_boom)

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                service = _make_service(
                    tmp_path,
                    executor,
                    breaker=CircuitBreaker(failure_threshold=100),
                )
                prepared = service.prepare("example1", {})
                waiters = [
                    asyncio.ensure_future(service.fetch(prepared)) for _ in range(3)
                ]
                await asyncio.to_thread(started.wait, 30.0)
                await asyncio.sleep(0.05)  # let every waiter join the flight
                release.set()
                outcomes = await asyncio.gather(*waiters, return_exceptions=True)
                # Every waiter got the one failure...
                assert all(isinstance(o, RuntimeError) for o in outcomes)
                # ...and the gate is already clear for the next request.
                assert service._inflight == {}
                assert service.metrics.single_flight_joined == 2
                monkeypatch.undo()
                result, state = await service.fetch(prepared)
                assert state == "miss"
                return result

        result = asyncio.run(scenario())
        assert result.experiment_id == "example1"


class TestAppDegradation:
    def test_healthz_and_503_surface_through_the_app(self, tmp_path, monkeypatch):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=30.0, clock=clock
        )
        monkeypatch.setattr(service_module, "_pool_execute", _boom)

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                service = _make_service(tmp_path, executor, breaker=breaker)
                app = ResultApp(service, refresh=_no_refresh)
                healthy = await app.handle(_get("/healthz"))
                first = await app.handle(_get("/experiments/example1"))
                rejected = await app.handle(_get("/experiments/example1"))
                degraded = await app.handle(_get("/healthz"))
                return healthy, first, rejected, degraded

        healthy, first, rejected, degraded = asyncio.run(scenario())
        assert healthy.status == 200
        assert b'"status": "ok"' in healthy.body
        assert first.status == 500  # the failing build itself
        assert rejected.status == 503
        assert dict(rejected.headers)["Retry-After"] == "30"
        assert b"temporarily disabled" in rejected.body
        # Liveness stays 200; the body carries the degradation.
        assert degraded.status == 200
        assert b'"status": "degraded"' in degraded.body
        assert b'"breaker": "open"' in degraded.body
