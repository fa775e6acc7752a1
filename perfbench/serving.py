"""The two serve workloads: ``serve_reads`` and ``serve_writes``.

The :class:`~repro.serve.ResultServer` runs inside the benchmark process,
on an ephemeral port with a fresh cache directory and the fingerprint
refresh off, and the benchmark's own client drives it in a closed loop on
one keep-alive connection of the same event loop: the next request goes out
only after the previous response arrived.  A server in its own process, or
an open loop at a fixed rate, measured the host's scheduler more than the
program; a second connection on the one event loop made read latencies
bimodal (the two clients fall in and out of step), which put the median
between two modes.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.backend import get_backend
from repro.experiments.orchestrator import ExperimentResult, ResultCache, execute_spec
from repro.experiments.orchestrator import registry
from repro.serve import HttpResponse, ResultApp, ResultServer, ResultService, json_body

from perfbench import ROOT, harness
from perfbench.httpclient import OP_HEADER, HttpClient
from perfbench.spans import Tracer
from perfbench.workloads import op_seed

HOST = "127.0.0.1"

#: Experiments the read workload serves (built at set-up); one read op
#: fetches all six, so every op does the same work.
READ_EXPERIMENTS = (
    "figure1",
    "example1",
    "campaign_budget",
    "safety_violation",
    "component_exposure",
    "two_class",
)

#: Experiments the write workload submits round-robin, each at a fresh seed.
WRITE_EXPERIMENTS = (
    "campaign_budget",
    "safety_violation",
    "two_class",
    "vulnerability_window",
    "component_exposure",
)

#: Read ops each set-up runs after building the six results.
WARMUP_READS = 20

#: Writes each set-up runs (two per experiment), which also starts the pool.
WARMUP_WRITES = 2 * len(WRITE_EXPERIMENTS)

#: ``/metrics`` counters the checks and the per-layer ratios read.
COUNTERS = ("builds", "cache_hits", "memory_hits")


class ServeWorkload:
    """A server plus one closed-loop client, both on a private event loop."""

    name = ""
    serve = True

    #: Work units one successful op completes.
    units = 1

    def __init__(self, seed: int, tracer: Tracer, workdir: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.backend = get_backend().name
        self.loop = asyncio.new_event_loop()
        self.server: Optional[ResultServer] = None
        self.client: Optional[HttpClient] = None
        self.cache_dir: Optional[str] = None
        self.counters_before: Dict[str, int] = {}
        self.traced_deltas = dict.fromkeys(COUNTERS, 0)
        self.traced_ops = 0
        self._setups = 0

    # -- set-up and tear-down ----------------------------------------------------

    def setup(self) -> None:
        self._setups += 1
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        self.server = ResultServer(host=HOST, port=0, cache_dir=self.cache_dir, refresh_interval=0)
        await self.server.start()
        self.client = await HttpClient.connect(HOST, self.server.port)
        await self._prime()
        self.counters_before = await self._metrics()

    def discard(self) -> None:
        """Stop the server, wait for its pool workers, drop its cache dir."""
        if self.server is not None:
            self.loop.run_until_complete(self._stop())
            self.server = None
        harness.reap_children()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
            self.cache_dir = None

    async def _stop(self) -> None:
        if self.client is not None:
            await self.client.close()
            self.client = None
        await self.server.stop()
        # The connection handler ends once it reads the client's EOF; a
        # handler still pending when the loop closes would be destroyed.
        pending = [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]
        if pending:
            await asyncio.wait(pending, timeout=harness.CHILD_EXIT_TIMEOUT)

    def close(self) -> None:
        self.discard()
        self.loop.close()

    async def _metrics(self) -> Dict[str, int]:
        document = await self.client.json("GET", "/metrics")
        return {name: document[name] for name in COUNTERS}

    # -- timed blocks ---------------------------------------------------------------

    def run_block(
        self,
        log: harness.OpLog,
        *,
        traced: bool,
        seconds: float,
        min_ops: int,
        max_ops: Optional[int],
    ) -> float:
        if traced:
            before = self.loop.run_until_complete(self._metrics())
            self._patch()
        self.tracer.enabled = traced
        try:
            return self.loop.run_until_complete(
                self._closed_loop(log, traced=traced, seconds=seconds, min_ops=min_ops, max_ops=max_ops)
            )
        finally:
            self.tracer.enabled = False
            self.tracer.unpatch_all()
            if traced:
                after = self.loop.run_until_complete(self._metrics())
                for name in COUNTERS:
                    self.traced_deltas[name] += after[name] - before[name]

    async def _closed_loop(
        self,
        log: harness.OpLog,
        *,
        traced: bool,
        seconds: float,
        min_ops: int,
        max_ops: Optional[int],
    ) -> float:
        start = time.perf_counter()
        deadline = start + seconds
        done = 0
        while harness.more_ops(done, deadline, min_ops, max_ops):
            op_id = log.new_id()
            began = time.perf_counter()
            try:
                response = await self.request(op_id)
            except (OSError, asyncio.IncompleteReadError) as error:
                response, problem = None, f"{type(error).__name__}: {error}"
            ended = time.perf_counter()
            if response is not None:
                problem = self.verify(response)
            if problem is not None:
                log.failure(op_id, problem)
            ok = problem is None
            log.ops.append(harness.Op(op_id, began, ended, self.units if ok else 0, ok, traced))
            done += 1
        if traced:
            self.traced_ops += done
        return time.perf_counter() - start

    def _patch(self) -> None:
        """Wrap the serve and orchestrator functions the server calls."""
        tracer = self.tracer
        handle = ResultApp.handle

        async def traced_handle(app: ResultApp, request: Any) -> Any:
            # The connection task keeps the op id after handle() returns,
            # so the response's encode() is attributed to the same op.
            Tracer.set_op(int(request.header(OP_HEADER.lower(), "-1")))
            span, token = tracer.open("serve.job" if request.method == "POST" else "serve.handle")
            try:
                return await handle(app, request)
            finally:
                tracer.close(span, token)

        tracer.replace(ResultApp, "handle", traced_handle)
        tracer.patch(ResultService, "prepare", "serve.prepare")
        tracer.patch(ResultService, "prepare_document", "serve.prepare_document")
        tracer.patch(HttpResponse, "encode", "serve.encode")
        tracer.patch(ResultCache, "key_for", "orchestrator.key_for")
        tracer.patch(ResultCache, "store", "orchestrator.store")
        tracer.patch(ExperimentResult, "from_dict", "orchestrator.from_dict")

        executor = self.server.service.executor
        submit = executor.submit

        def traced_submit(fn: Any, *args: Any, **kwargs: Any) -> Any:
            span, _ = tracer.open(harness.POOL_SPAN, current=False)
            future = submit(fn, *args, **kwargs)

            def finished(done: Any) -> None:
                span.end = time.perf_counter()
                if not done.cancelled() and done.exception() is None:
                    span.detail = float(done.result().get("wall_time_seconds", 0.0))

            future.add_done_callback(finished)
            return future

        tracer.replace(executor, "submit", traced_submit)

    def layer_extra(self) -> Dict[str, float]:
        hits = self.traced_deltas["cache_hits"]
        return {
            "serve.memory_hit_ratio": self.traced_deltas["memory_hits"] / hits if hits else 0.0,
            "orchestrator.builds": self.traced_deltas["builds"] / max(1, self.traced_ops),
        }

    # -- per workload --------------------------------------------------------------

    async def _prime(self) -> None:
        raise NotImplementedError

    async def request(self, op_id: int) -> Any:
        raise NotImplementedError

    def verify(self, response: Any) -> Optional[str]:
        raise NotImplementedError

    def end_round(self) -> List[str]:
        """Checks of the round's server before the next set-up replaces it."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Checks of the last server, after the peak RSS was read."""
        return []


class ServeReads(ServeWorkload):
    """One op reads the six results built at set-up: six ``GET /experiments/{id}``.

    Every response comes from the in-memory body cache, so the op is the
    serving hot path: HTTP parsing, routing, ``prepare``/``key_for`` and
    the body lookup.  Nothing is built.  Single requests differ by
    experiment, and a median over six kinds of request sits between two of
    them; an op that fetches all six does the same work every time.
    """

    name = "serve_reads"
    units = len(READ_EXPERIMENTS)

    def __init__(self, seed: int, tracer: Tracer, workdir: str) -> None:
        super().__init__(seed, tracer, workdir)
        golden = ROOT / "tests" / "golden"
        self.golden: Dict[str, bytes] = {}
        for experiment in READ_EXPERIMENTS:
            specific = golden / f"{experiment}.{self.backend}.json"
            self.golden[experiment] = (specific if specific.exists() else golden / f"{experiment}.json").read_bytes()
        # The seed picks which experiment each op starts its pass with.
        self.offset = op_seed(seed, 0) % len(READ_EXPERIMENTS)

    async def _prime(self) -> None:
        for experiment in READ_EXPERIMENTS:
            status, _, body = await self.client.request("GET", f"/experiments/{experiment}")
            if status != 200 or body != self.golden[experiment]:
                raise RuntimeError(f"set-up build of {experiment} failed ({status})")
        for index in range(WARMUP_READS):
            await self.request(-1 - index)

    async def request(self, op_id: int) -> Any:
        responses = []
        for step in range(len(READ_EXPERIMENTS)):
            experiment = READ_EXPERIMENTS[(self.offset + op_id + step) % len(READ_EXPERIMENTS)]
            responses.append((experiment, await self.client.request("GET", f"/experiments/{experiment}", op=op_id)))
        return responses

    def verify(self, response: Any) -> Optional[str]:
        for experiment, (status, _, body) in response:
            if status != 200:
                return f"GET {experiment} answered {status}"
            if body != self.golden[experiment]:
                return f"GET {experiment} body differs from its golden file"
        return None

    def end_round(self) -> List[str]:
        after = self.loop.run_until_complete(self._metrics())
        builds = after["builds"] - self.counters_before["builds"]
        return [f"{builds} builds ran during the timed reads"] if builds else []


class ServeWrites(ServeWorkload):
    """``POST /jobs`` with ``wait: true`` at a fresh seed: every write builds.

    The only workload where the orchestrator (pool dispatch, result decode,
    cache store) and the census and simulation experiments do the work.
    """

    name = "serve_writes"

    def __init__(self, seed: int, tracer: Tracer, workdir: str) -> None:
        super().__init__(seed, tracer, workdir)
        # Op ids are unique within a run and set-up ids are small negative
        # numbers, so every write of a server's life gets a distinct seed.
        self.seed_base = 1_000 + op_seed(seed, 0) % (1 << 29)
        self.writes = 0
        self.last_job: Dict[str, Tuple[str, Dict[str, Any]]] = {}

    async def _prime(self) -> None:
        for index in range(WARMUP_WRITES):
            problem = self.verify(await self.request(-(self._setups * WARMUP_WRITES + index)))
            if problem is not None:
                raise RuntimeError(f"set-up write failed: {problem}")
        self.writes = 0
        self.last_job = {}

    async def request(self, op_id: int) -> Any:
        experiment = WRITE_EXPERIMENTS[op_id % len(WRITE_EXPERIMENTS)]
        document = {"experiment": experiment, "params": {"seed": self.seed_base + op_id}, "wait": True}
        return experiment, await self.client.request("POST", "/jobs", op=op_id, document=document)

    def verify(self, response: Any) -> Optional[str]:
        experiment, (status, _, body) = response
        self.writes += 1
        if status != 200:
            return f"POST /jobs {experiment} answered {status}"
        job = json.loads(body)
        if job.get("status") != "done":
            return f"job {job.get('id')} of {experiment} ended {job.get('status')}: {job.get('error')}"
        self.last_job[experiment] = (job["id"], job["tasks"][0]["params"])
        return None

    def end_round(self) -> List[str]:
        after = self.loop.run_until_complete(self._metrics())
        builds = after["builds"] - self.counters_before["builds"]
        return [f"{builds} builds for {self.writes} writes"] if builds != self.writes else []

    def check(self) -> List[str]:
        """The last job of each experiment equals an in-process build's bytes."""
        return self.loop.run_until_complete(self._check())

    async def _check(self) -> List[str]:
        failures = []
        for experiment in WRITE_EXPERIMENTS:
            if experiment not in self.last_job:
                failures.append(f"no {experiment} job completed")
                continue
            job_id, params = self.last_job[experiment]
            status, _, body = await self.client.request("GET", f"/jobs/{job_id}/result")
            spec = registry.get_spec(experiment)
            expected = json_body(execute_spec(spec, spec.params_from_dict(params), backend=self.backend).canonical_dict())
            if status != 200 or body != expected:
                failures.append(f"job {job_id} ({experiment}) differs from an in-process build ({status})")
        return failures
