"""Measurement loop, summaries and process hygiene shared by every workload.

A run is a number of rounds.  Each round sets the workload up afresh (the
median of these set-up times is ``setup_s``) and times a block of ops on
it, so set-ups and ops sample the host over the whole run rather than set-ups
all landing in its first seconds.  After the last round the run reads the
peak RSS, checks the program's outputs, tears everything down and checks
that no descendant process survived.

An untraced run (``--trace 0``) times its blocks with nothing wrapped and
reports the end-to-end metrics.  In a traced run (``--trace 1``) every round
times an untraced block and then a traced one of the same length, so the
tracing overhead is measured against ops of the same process and set-up; the
per-layer metrics come from the traced blocks.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from perfbench import spans as spanlib

#: Ops an untraced run times at least, so that ten lie beyond p90.
MIN_OPS = 100

#: Rounds (set-up plus timed ops) of a run; ``setup_s`` is their median.
ROUNDS = 5

#: Least ops of each block in a traced run.
MIN_TRACED_BLOCK_OPS = 10

#: Seconds to wait for the children of a stopped server to exit.
CHILD_EXIT_TIMEOUT = 30.0

#: Every per-layer metric, as a traced run reports it.
PER_LAYER = (
    "kernel.calls",
    "kernel.self_ms",
    "kernel.ns_per_cell",
    "kernel.share",
    "kernel.cells",
    "engine.self_ms",
    "engine.plan_ms",
    "engine.merge_ms",
    "engine.chunks",
    "build.stream_ms",
    "build.matrix_ms",
    "build.nnz",
    "build.share",
    "build.setup_ms",
    "orchestrator.execute_ms",
    "orchestrator.dispatch_ms",
    "orchestrator.decode_ms",
    "orchestrator.store_ms",
    "orchestrator.key_ms",
    "orchestrator.builds",
    "serve.handle_ms",
    "serve.prepare_ms",
    "serve.encode_ms",
    "serve.job_ms",
    "serve.memory_hit_ratio",
    "serve.client_ms",
    "trace.overhead",
    "trace.unattributed_share",
)

#: Self-time metrics: metric name -> the span names whose self time it sums.
SELF_TIME_METRICS = {
    "engine.self_ms": ("engine.estimate_grid",),
    "engine.plan_ms": ("engine.most_damaging",),
    "engine.merge_ms": (
        "engine.merge_sparse_partials",
        "engine.finalize_sparse_point",
        "engine.merge_campaign_grid_batches",
    ),
    "build.stream_ms": ("build.stream_replica_chunks",),
    "build.matrix_ms": ("build.from_replica_chunks",),
    "orchestrator.decode_ms": ("orchestrator.from_dict",),
    "orchestrator.store_ms": ("orchestrator.store",),
    "orchestrator.key_ms": ("orchestrator.key_for",),
    "serve.handle_ms": ("serve.handle",),
    "serve.prepare_ms": ("serve.prepare", "serve.prepare_document"),
    "serve.encode_ms": ("serve.encode",),
    "serve.job_ms": ("serve.job",),
}

#: Set-up spans behind ``build.setup_ms``.
SETUP_SPANS = ("build.ecosystem_scenario", "build.PopulationMatrix.build")

#: Span of one pool round trip; its ``detail`` is the worker's execute time.
POOL_SPAN = "orchestrator.pool"


class Op(NamedTuple):
    """One timed op (``units`` of work done, 0 when it failed)."""

    op_id: int
    start: float
    end: float
    units: int
    ok: bool
    traced: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class OpLog:
    """Every timed op of a run, plus per-op exact counts of traced ops."""

    ops: List[Op] = field(default_factory=list)
    untraced_seconds: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    issued: int = 0

    def new_id(self) -> int:
        """A fresh op id (ids are unique across every block of a run)."""
        self.issued += 1
        return self.issued - 1

    def add_counts(self, counts: Dict[str, int]) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def failure(self, op_id: int, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"op {op_id}: {message}")


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (failed ops enter as ``inf``)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def more_ops(done: int, deadline: float, min_ops: int, max_ops: Optional[int]) -> bool:
    """Whether a block starts another op: until ``deadline`` and ``min_ops``,
    or exactly ``max_ops`` when that is given."""
    if max_ops is not None:
        return done < max_ops
    return time.perf_counter() < deadline or done < min_ops


def run_sync_block(
    op: Callable[[int], Tuple[int, Any]],
    count: Callable[[Any], Dict[str, int]],
    log: OpLog,
    *,
    traced: bool,
    seconds: float,
    min_ops: int,
    max_ops: Optional[int],
) -> float:
    """Run ops back to back for ``seconds`` (and at least ``min_ops``)."""
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    while more_ops(done, deadline, min_ops, max_ops):
        op_id = log.new_id()
        spanlib.Tracer.set_op(op_id)
        began = time.perf_counter()
        try:
            units, info = op(op_id)
            ok = True
        except Exception as error:  # a failed op is counted, not fatal
            units, info, ok = 0, None, False
            log.failure(op_id, "".join(traceback.format_exception_only(type(error), error)).strip())
        ended = time.perf_counter()
        spanlib.Tracer.set_op(spanlib.NO_OP)
        log.ops.append(Op(op_id, began, ended, units, ok, traced))
        if traced and ok:
            log.add_counts(count(info))
        done += 1
    return time.perf_counter() - start


def round_blocks(seconds: float, trace: bool, rounds: int) -> List[Tuple[bool, float, int]]:
    """``(traced, seconds, min_ops)`` blocks of each round of a run."""
    if not trace:
        return [(False, seconds / rounds, math.ceil(MIN_OPS / rounds))]
    share = seconds / (2 * rounds)
    return [(False, share, MIN_TRACED_BLOCK_OPS), (True, share, MIN_TRACED_BLOCK_OPS)]


def peak_rss_mb() -> float:
    """This process's peak resident set size, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run ------------------------------------------------------------------------


@dataclass
class Run:
    """What one run measured, ready to be summarized."""

    log: OpLog
    tracer: spanlib.Tracer
    setup_seconds: List[float]
    rss_mb: float
    failures: List[str]
    layer_extra: Dict[str, float]
    serve: bool

    def metrics(self, trace: bool) -> Dict[str, Dict[str, Any]]:
        if trace:
            return per_layer(
                self.log, self.tracer, setups=len(self.setup_seconds), serve=self.serve, extra=self.layer_extra
            )
        return end_to_end(self.log, self.setup_seconds, self.rss_mb)


def measure(
    workload_class: Any,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    workdir_root: str,
    rounds: int = ROUNDS,
    max_ops: Optional[int] = None,
) -> Run:
    """Run ``rounds`` rounds, then check and tear down.

    ``max_ops`` replaces each block's duration by an op count (tests).
    """
    already_running = set(descendants())
    workdir = tempfile.mkdtemp(prefix=f"{workload_class.name}-", dir=workdir_root)
    tracer = spanlib.Tracer()
    log = OpLog()
    setup_seconds: List[float] = []
    failures: List[str] = []
    workload = workload_class(seed, tracer, workdir)
    try:
        for index in range(rounds):
            if index:
                workload.discard()
            tracer.enabled = trace
            began = time.perf_counter()
            workload.setup()
            setup_seconds.append(time.perf_counter() - began)
            tracer.enabled = False
            for traced, block_seconds, min_ops in round_blocks(seconds, trace, rounds):
                wall = workload.run_block(
                    log, traced=traced, seconds=block_seconds, min_ops=min_ops, max_ops=max_ops
                )
                if not traced:
                    log.untraced_seconds += wall
            failures += workload.end_round()
        rss_mb = peak_rss_mb()
        failures = log.errors + failures + workload.check()
        extra = workload.layer_extra()
    finally:
        workload.close()
        survivors = sorted(set(reap_children()) - already_running)
        shutil.rmtree(workdir, ignore_errors=True)
    if survivors:
        failures.append(f"descendant processes survived the run: {survivors}")
    if os.path.exists(workdir):
        failures.append(f"temporary directory {workdir} survived the run")
    return Run(log, tracer, setup_seconds, rss_mb, failures, extra, workload_class.serve)


# -- end-to-end metrics ---------------------------------------------------------------


def end_to_end(log: OpLog, setup_seconds: List[float], rss_mb: float) -> Dict[str, Dict[str, Any]]:
    ops = [op for op in log.ops if not op.traced]
    latencies = [op.seconds if op.ok else math.inf for op in ops]
    units = sum(op.units for op in ops if op.ok)
    return {
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
        "work_per_s": {"value": units / log.untraced_seconds, "unit": "1/s"},
        "p50_ms": {"value": percentile(latencies, 0.5) * 1e3, "unit": "ms"},
        "p90_ms": {"value": percentile(latencies, 0.9) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


# -- per-layer metrics ----------------------------------------------------------------


def per_layer(
    log: OpLog,
    tracer: spanlib.Tracer,
    *,
    setups: int,
    serve: bool,
    extra: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    """Per-op layer metrics from the spans of the traced ops."""
    traced = [op for op in log.ops if op.traced and op.ok]
    count = max(1, len(traced))
    wall = sum(op.seconds for op in traced) or 1.0
    op_ids = {op.op_id for op in traced}
    own = [span for span in tracer.spans if span.op in op_ids]
    self_seconds = spanlib.self_times(tracer.spans)

    def self_sum(predicate: Callable[[str], bool], pool: List[spanlib.Span]) -> float:
        return sum(self_seconds.get(id(span), 0.0) for span in pool if predicate(span.name))

    metrics: Dict[str, float] = {}
    kernel_s = self_sum(lambda name: name.startswith("kernel."), own)
    cells = log.counts.get("kernel.cells", 0)
    metrics["kernel.calls"] = sum(1 for span in own if span.name.startswith("kernel.")) / count
    metrics["kernel.self_ms"] = kernel_s * 1e3 / count
    metrics["kernel.ns_per_cell"] = kernel_s * 1e9 / cells if cells else 0.0
    metrics["kernel.share"] = kernel_s / wall
    metrics["kernel.cells"] = cells / count
    for name, members in SELF_TIME_METRICS.items():
        metrics[name] = self_sum(members.__contains__, own) * 1e3 / count
    metrics["engine.chunks"] = log.counts.get("engine.chunks", 0) / count
    metrics["build.nnz"] = log.counts.get("build.nnz", 0) / count
    metrics["build.share"] = self_sum(lambda name: name.startswith("build."), own) / wall
    setup_pool = [span for span in tracer.spans if span.op == spanlib.NO_OP]
    metrics["build.setup_ms"] = self_sum(SETUP_SPANS.__contains__, setup_pool) * 1e3 / max(1, setups)
    pool = [span for span in own if span.name == POOL_SPAN and span.end is not None]
    execute = sum(span.detail or 0.0 for span in pool)
    metrics["orchestrator.execute_ms"] = execute * 1e3 / count
    metrics["orchestrator.dispatch_ms"] = (sum(span.duration for span in pool) - execute) * 1e3 / count
    covered = spanlib.covered_per_op(own, {op.op_id: (op.start, op.end) for op in traced})
    uncovered = sum(op.seconds - covered.get(op.op_id, 0.0) for op in traced)
    metrics["serve.client_ms"] = uncovered * 1e3 / count if serve else 0.0
    untraced_p50 = percentile([op.seconds for op in log.ops if not op.traced and op.ok] or [0.0], 0.5)
    traced_p50 = percentile([op.seconds for op in traced] or [0.0], 0.5)
    metrics["trace.overhead"] = traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0
    metrics["trace.unattributed_share"] = uncovered / wall
    # Read from the server's /metrics counters by the serve workloads.
    for name in ("orchestrator.builds", "serve.memory_hit_ratio"):
        metrics[name] = extra.get(name, 0.0)
    return {name: {"value": metrics[name], "unit": layer_unit(name)} for name in PER_LAYER}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, which its name spells out."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_cell"):
        return "ns"
    if name.endswith(("share", "ratio", "overhead")):
        return "ratio"
    return "count"


# -- host and environment ---------------------------------------------------------------


def host_block() -> Dict[str, Any]:
    """nproc, CPU model, Python and NumPy versions of the measuring host."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
    }


def pin_environment() -> Dict[str, Any]:
    """Clear the variables that would change the program's behaviour.

    Fault injection (``REPRO_CHAOS*``) and a shared cache directory
    (``REPRO_CACHE_DIR``) are removed; every other ``REPRO_*`` variable is
    kept and reported, since it may select the backend or its knobs.
    """
    cleared = sorted(
        name for name in os.environ if name.startswith("REPRO_CHAOS") or name == "REPRO_CACHE_DIR"
    )
    for name in cleared:
        del os.environ[name]
    kept = {name: value for name, value in sorted(os.environ.items()) if name.startswith("REPRO_")}
    return {"cleared": cleared, "kept": kept}


# -- process hygiene ------------------------------------------------------------------


def descendants(root: Optional[int] = None) -> List[int]:
    """Live descendant pids of ``root`` (this process), from ``/proc``."""
    root = os.getpid() if root is None else root
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z":
            parents[int(entry)] = int(fields[1])
    found: List[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def reap_children(timeout: float = CHILD_EXIT_TIMEOUT) -> List[int]:
    """Wait for this process's children to exit; the pids still alive after."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    multiprocessing.active_children()  # reaps whatever just exited
    return descendants()
