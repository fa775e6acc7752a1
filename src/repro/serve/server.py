"""The asyncio TCP server hosting the result service.

:class:`ResultServer` owns the listening socket, the bounded
:class:`~concurrent.futures.ProcessPoolExecutor` misses are computed on,
and the periodic **fingerprint refresh**: every ``refresh_interval``
seconds the source tree is re-hashed and, when it changed, the memoized
cache fingerprint is refreshed *and the process pool is recycled* — forked
workers hold the old modules in memory, so without the recycle a long-lived
server would keep serving results computed from code that no longer exists.

Connections speak HTTP/1.1 with keep-alive; a malformed request is answered
with its JSON error and the connection is closed.
"""

from __future__ import annotations

import asyncio
import os
import sys
from typing import Optional

from repro.backend.resilient import ResilientExecutor
from repro.core.exceptions import ServeError
from repro.experiments.orchestrator import ResultCache, invalidate_code_fingerprint
from repro.experiments.orchestrator.cache import (
    code_fingerprint,
    compute_code_fingerprint,
    set_code_fingerprint,
)
from repro.serve.app import ResultApp, error_response
from repro.serve.breaker import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_RESET_TIMEOUT,
    CircuitBreaker,
)
from repro.serve.http import LAST_CHUNK, StreamingHttpResponse, encode_chunk, read_request
from repro.serve.jobs import JobStore
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import ResultService

#: Default keep-alive idle timeout, in seconds.
DEFAULT_KEEP_ALIVE_TIMEOUT = 75.0

#: Default fingerprint-refresh interval, in seconds (0 disables).
DEFAULT_REFRESH_INTERVAL = 5.0


def default_jobs() -> int:
    """Default process-pool size: bounded even on very wide machines."""
    return min(4, os.cpu_count() or 1)


class ResultServer:
    """One listening result service; create, ``await start()``, ``stop()``."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        refresh_interval: float = DEFAULT_REFRESH_INTERVAL,
        metrics: Optional[ServiceMetrics] = None,
        build_deadline: Optional[float] = None,
        build_retries: int = 0,
        breaker_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        breaker_reset: float = DEFAULT_RESET_TIMEOUT,
    ) -> None:
        """Args:
        host: interface to bind.
        port: TCP port; ``0`` picks an ephemeral one (see :attr:`port`).
        jobs: process-pool size for miss computations.
        cache_dir: result-cache directory (``None``: the orchestrator
            default, ``$REPRO_CACHE_DIR`` or ``.repro-cache``).
        refresh_interval: seconds between source-tree re-hashes; ``0``
            disables the refresh loop.
        metrics: shared counters; a private instance by default.
        build_deadline: per-request build deadline (seconds) answered
            ``504`` when exceeded; also the executor's per-attempt deadline
            so hung workers are terminated.  ``None`` waits forever.
        build_retries: re-dispatches per build after a worker crash or
            injected fault (0: fail fast — a request's failure is reported
            immediately and the breaker counts it).
        breaker_threshold: consecutive build failures that open the
            circuit breaker (serve ``503`` + ``Retry-After``).
        breaker_reset: seconds an open breaker waits before probing.
        """
        if not refresh_interval >= 0:  # also rejects NaN
            raise ValueError(
                f"refresh interval must be >= 0 seconds, got {refresh_interval}"
            )
        self.host = host
        self.requested_port = port
        self.jobs = jobs if jobs is not None else default_jobs()
        self.cache_dir = cache_dir
        self.refresh_interval = refresh_interval
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.build_deadline = build_deadline
        self.build_retries = build_retries
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, reset_timeout=breaker_reset
        )
        self.job_store = JobStore()
        self.service: Optional[ResultService] = None
        self.app: Optional[ResultApp] = None
        self._executor: Optional[ResilientExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._refresh_task: Optional["asyncio.Task[None]"] = None

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the actual one)."""
        if self._server is None or not self._server.sockets:
            raise ServeError(500, "server is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "ResultServer":
        """Bind the socket, create the pool, start the refresh loop."""
        # Serve keys for the source as it is *now*, not as it was when this
        # process first imported the cache module.
        invalidate_code_fingerprint()
        self._executor = ResilientExecutor(
            max_workers=self.jobs,
            deadline=self.build_deadline,
            retries=self.build_retries,
        )
        self.metrics.attach_section("resilience", self._executor.snapshot)
        self.metrics.attach_section("breaker", self.breaker.snapshot)
        self.service = ResultService(
            cache=ResultCache(self.cache_dir),
            executor=self._executor,
            metrics=self.metrics,
            build_deadline=self.build_deadline,
            breaker=self.breaker,
        )
        self.metrics.attach_section("jobs", self.job_store.counts)
        self.app = ResultApp(
            self.service,
            self.metrics,
            jobs=self.job_store,
            # The admin plane's fingerprint refresh goes through the same
            # path as the periodic loop, so the pool recycle comes with it.
            refresh=self.refresh_now,
        )
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.requested_port
            )
        except OSError:
            self._executor.shutdown(wait=False)
            self._executor = None
            raise
        if self.refresh_interval > 0:
            self._refresh_task = asyncio.get_running_loop().create_task(
                self._refresh_loop()
            )
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            raise ServeError(500, "server is not running")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, cancel the refresh loop, release the pool."""
        if self._refresh_task is not None:
            self._refresh_task.cancel()
            try:
                await self._refresh_task
            except asyncio.CancelledError:
                pass
            self._refresh_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.app is not None:
            # Cancel in-flight job runs before the pool goes away; their
            # jobs are marked failed so pollers see a terminal state.
            await self.app.close()
        if self._executor is not None:
            # wait=False: in-flight builds finish in the background without
            # blocking the event loop; nothing new can be submitted.
            self._executor.shutdown(wait=False)
            self._executor = None

    async def refresh_now(self) -> bool:
        """Force one fingerprint refresh; ``True`` when the source changed.

        The tree is hashed in a worker thread, but the memo update and the
        executor swap happen together, synchronously, on the event loop —
        so any request code reading (fingerprint, executor) without an
        ``await`` in between sees a consistent pair.
        """
        current = await asyncio.to_thread(code_fingerprint)
        fresh = await asyncio.to_thread(compute_code_fingerprint)
        if fresh == current:
            return False
        set_code_fingerprint(fresh)
        self.metrics.fingerprint_refreshes += 1
        self._recycle_executor()
        return True

    def _recycle_executor(self) -> None:
        """Recycle the resilient executor's pool so new builds run the
        edited source.

        The executor object itself is stable (the service and the metrics
        section keep their references); only its inner pool is swapped.
        The old pool's in-flight builds complete (their results are keyed
        under the old fingerprint, consistently), after which it drains.
        """
        if self._executor is not None:
            self._executor.recycle()

    async def _refresh_loop(self) -> None:
        while True:
            await asyncio.sleep(self.refresh_interval)
            try:
                await self.refresh_now()
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A transient failure (pool respawn under fd pressure, an
                # unreadable tree mid-edit) must not kill the loop: the whole
                # point of the refresh is that it keeps running for the
                # lifetime of the server.
                print(f"warning: fingerprint refresh failed: {error}", file=sys.stderr)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=DEFAULT_KEEP_ALIVE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    break
                except ServeError as error:
                    response = error_response(error.status, str(error))
                    self.metrics.count_response(response.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                assert self.app is not None  # set in start()
                response = await self.app.handle(request)
                keep_alive = request.keep_alive
                if isinstance(response, StreamingHttpResponse):
                    writer.write(response.encode_head(keep_alive=keep_alive))
                    async for chunk in response.chunks:
                        writer.write(encode_chunk(chunk))
                        await writer.drain()
                    writer.write(LAST_CHUNK)
                else:
                    writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # The event loop is shutting down mid-connection; terminating the
            # handler cleanly is the cancellation, so don't re-raise into the
            # stream protocol's noisy exception callback.
            pass
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):  # pragma: no cover
                pass
