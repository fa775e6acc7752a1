"""Three-way backend benchmark: python vs numpy vs shm worker sweeps.

Phase A replays the ``BENCH_5.json`` campaign workload (10k trials × 150
replicas through :meth:`BatchCampaignEngine.estimate_worst_case`) on the
scalar python backend, the vectorized numpy backend, and the shared-memory
multiprocess ``shm`` backend at each requested worker count.  The campaign
kernels share one counter-based RNG stream and every shipped scenario's
replica powers are 1.0 (exact float64 sums), so all measurements are
asserted *identical* — the speedup table can never hide a numerics change.

Phase B replays the ``BENCH_9.json`` sparse workload at sweep scale: one
budgeted worst-case grid point through
:meth:`~repro.faults.engine.GridCampaignEngine.estimate_grid` on the shm
backend over a CSR ecosystem (10⁷ replicas in the committed snapshot), with
``chunk_rows`` set to the population size so the whole campaign is a single
``sparse_grid_partials`` kernel call, recording parent peak RSS against an
optional memory ceiling.

The snapshot (``BENCH_10.json`` in CI) records the host's CPU count next
to every speedup: a single-core container honestly shows ~1× from process
fan-out, which is why the CI gate (``--min-speedup``) runs on multi-core
runners rather than being baked into the library.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from contextlib import contextmanager

from repro.backend import available_backends
from repro.backend.shm_backend import WORKERS_ENV_VAR
from repro.backend.timing import peak_rss_kb
from repro.core.exceptions import AnalysisError
from repro.faults.engine import (
    BatchCampaignEngine,
    CampaignEstimate,
    GridCampaignEngine,
    GridPointRequest,
)
from repro.faults.scenarios import ecosystem_scenario, sparse_ecosystem_matrix

#: Schema version of the snapshot document.
BACKENDS_SNAPSHOT_VERSION = 2

#: Worker counts swept for the shm backend by default.
DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)

#: Sparse sweep scale of the committed snapshot (Phase B).
DEFAULT_SPARSE_SIZE = 10_000_000

#: Tolerances evaluated by the sparse grid point.
SPARSE_TOLERANCES = (1.0 / 3.0, 0.5)


@dataclass(frozen=True)
class BackendTiming:
    """One backend configuration's measurement on the campaign workload."""

    label: str
    backend: str
    workers: Optional[int]
    trials: int
    seconds: float
    trials_per_second: float
    identical: bool


@dataclass(frozen=True)
class SparseSweepResult:
    """The budgeted sparse campaign at sweep scale (shm backend)."""

    population_size: int
    trials: int
    nnz: int
    workers: int
    budget: int
    build_seconds: float
    campaign_seconds: float
    peak_rss_kb: int


@dataclass(frozen=True)
class BackendsBenchmarkReport:
    """All backend timings plus the sparse sweep for one workload."""

    trials: int
    python_trials: int
    replicas: int
    vulnerabilities: int
    ecosystem: str
    exploit_probability: float
    budget: int
    seed: int
    repeats: int
    cpu_count: int
    worker_counts: Tuple[int, ...]
    timings: Tuple[BackendTiming, ...]
    sparse: Optional[SparseSweepResult]
    memory_ceiling_mb: Optional[int]

    def timing(self, label: str) -> BackendTiming:
        for timing in self.timings:
            if timing.label == label:
                return timing
        raise AnalysisError(f"configuration {label!r} was not benchmarked")

    def shm_speedup_over_numpy(self, workers: int) -> Optional[float]:
        """Throughput ratio of ``shm`` at ``workers`` over plain numpy."""
        labels = {timing.label for timing in self.timings}
        label = f"shm[w={workers}]"
        if "numpy" not in labels or label not in labels:
            return None
        return (
            self.timing(label).trials_per_second
            / self.timing("numpy").trials_per_second
        )

    @property
    def memory_ceiling_kb(self) -> Optional[int]:
        if self.memory_ceiling_mb is None:
            return None
        return self.memory_ceiling_mb * 1024

    def within_memory_ceiling(self) -> Optional[bool]:
        """None without a ceiling or sparse phase; else the gate verdict."""
        if self.memory_ceiling_kb is None or self.sparse is None:
            return None
        return self.sparse.peak_rss_kb <= self.memory_ceiling_kb

    def as_dict(self) -> Dict:
        """JSON-serializable snapshot of the report."""
        document: Dict = {
            "version": BACKENDS_SNAPSHOT_VERSION,
            "benchmark": "backend_comparison",
            "workload": {
                "trials": self.trials,
                "python_trials": self.python_trials,
                "replicas": self.replicas,
                "vulnerabilities": self.vulnerabilities,
                "ecosystem": self.ecosystem,
                "exploit_probability": self.exploit_probability,
                "budget": self.budget,
                "seed": self.seed,
                "repeats": self.repeats,
                "cpu_count": self.cpu_count,
                "worker_counts": list(self.worker_counts),
            },
            "results": {
                timing.label: {
                    "backend": timing.backend,
                    "workers": timing.workers,
                    "trials": timing.trials,
                    "seconds": timing.seconds,
                    "trials_per_second": timing.trials_per_second,
                    "identical": timing.identical,
                }
                for timing in self.timings
            },
            "speedups_shm_over_numpy": {
                str(workers): self.shm_speedup_over_numpy(workers)
                for workers in self.worker_counts
            },
        }
        if self.sparse is not None:
            document["sparse_sweep"] = {
                "population_size": self.sparse.population_size,
                "trials": self.sparse.trials,
                "nnz": self.sparse.nnz,
                "workers": self.sparse.workers,
                "budget": self.sparse.budget,
                "build_seconds": self.sparse.build_seconds,
                "campaign_seconds": self.sparse.campaign_seconds,
                "peak_rss_kb": self.sparse.peak_rss_kb,
            }
        document["memory_ceiling_kb"] = self.memory_ceiling_kb
        document["within_memory_ceiling"] = self.within_memory_ceiling()
        return document


@contextmanager
def _environment(overrides: Dict[str, Optional[str]]) -> Iterator[None]:
    """Temporarily set/unset environment variables, restoring on exit."""
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _time_campaign(
    engine: BatchCampaignEngine,
    *,
    budget: int,
    trials: int,
    seed: int,
    repeats: int,
) -> Tuple[float, CampaignEstimate]:
    """Best-of-``repeats`` wall time for one worst-case campaign estimate."""

    def run(run_trials: int) -> CampaignEstimate:
        return engine.estimate_worst_case(
            max_vulnerabilities=budget, trials=run_trials, seed=seed
        )

    run(min(trials, 500))  # warmup: array conversion, pools, shm publication
    best = float("inf")
    estimate: Optional[CampaignEstimate] = None
    for _ in range(repeats):
        start = time.perf_counter()
        estimate = run(trials)
        best = min(best, time.perf_counter() - start)
    assert estimate is not None  # repeats >= 1 is validated by the caller
    return best, estimate


def benchmark_backend_suite(
    *,
    trials: int = 10_000,
    python_trials: int = 1_000,
    replicas: int = 150,
    ecosystem: str = "default",
    exploit_probability: float = 0.6,
    budget: int = 4,
    seed: int = 42,
    repeats: int = 2,
    worker_counts: Tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    sparse_size: int = DEFAULT_SPARSE_SIZE,
    sparse_trials: int = 8,
    sparse_workers: int = 4,
    sparse_seed: int = 29,
    sparse_exploit_probability: float = 0.45,
    memory_ceiling_mb: Optional[int] = None,
) -> BackendsBenchmarkReport:
    """Run both benchmark phases; see the module docstring for the design.

    Phase A requires the numpy backend (it is the identity reference and
    the speedup denominator); the python backend runs a reduced
    ``python_trials`` workload (the scalar loop is ~100× slower) checked
    against a numpy run of the same size.  Phase B runs only when the shm
    backend is available and ``sparse_size > 0``.
    """
    if trials <= 0 or replicas <= 0:
        raise AnalysisError("trials and replicas must be positive")
    if python_trials < 0 or repeats <= 0:
        raise AnalysisError("python_trials must be >= 0 and repeats positive")
    if any(count <= 0 for count in worker_counts):
        raise AnalysisError("worker counts must be positive")
    names = available_backends()
    if "numpy" not in names:
        raise AnalysisError(
            "the backend comparison needs the numpy backend as its "
            "identity reference"
        )
    scenario = ecosystem_scenario(
        ecosystem=ecosystem,
        population_size=replicas,
        seed=seed,
        exploit_probability=exploit_probability,
    )
    timings = []

    def engine_for(backend: str) -> BatchCampaignEngine:
        return BatchCampaignEngine(
            scenario.population, scenario.catalog, backend=backend
        )

    numpy_engine = engine_for("numpy")
    numpy_seconds, reference = _time_campaign(
        numpy_engine, budget=budget, trials=trials, seed=seed, repeats=repeats
    )
    timings.append(
        BackendTiming(
            label="numpy",
            backend="numpy",
            workers=None,
            trials=trials,
            seconds=numpy_seconds,
            trials_per_second=trials / numpy_seconds,
            identical=True,
        )
    )

    if "python" in names and python_trials > 0:
        python_seconds, python_estimate = _time_campaign(
            engine_for("python"),
            budget=budget,
            trials=python_trials,
            seed=seed,
            repeats=repeats,
        )
        python_reference = numpy_engine.estimate_worst_case(
            max_vulnerabilities=budget, trials=python_trials, seed=seed
        )
        if python_estimate != python_reference:
            raise AnalysisError(
                "the python backend broke the cross-backend identity "
                "contract on the benchmark workload"
            )
        timings.append(
            BackendTiming(
                label="python",
                backend="python",
                workers=None,
                trials=python_trials,
                seconds=python_seconds,
                trials_per_second=python_trials / python_seconds,
                identical=True,
            )
        )

    shm_available = "shm" in names
    if shm_available:
        shm_engine = engine_for("shm")
        for workers in worker_counts:
            with _environment({WORKERS_ENV_VAR: str(workers)}):
                shm_seconds, shm_estimate = _time_campaign(
                    shm_engine,
                    budget=budget,
                    trials=trials,
                    seed=seed,
                    repeats=repeats,
                )
            if shm_estimate != reference:
                raise AnalysisError(
                    f"the shm backend at {workers} workers broke the "
                    "cross-backend identity contract on the benchmark "
                    "workload"
                )
            timings.append(
                BackendTiming(
                    label=f"shm[w={workers}]",
                    backend="shm",
                    workers=workers,
                    trials=trials,
                    seconds=shm_seconds,
                    trials_per_second=trials / shm_seconds,
                    identical=True,
                )
            )

    sparse: Optional[SparseSweepResult] = None
    if shm_available and sparse_size > 0:
        sparse = _sparse_sweep(
            size=sparse_size,
            trials=sparse_trials,
            workers=sparse_workers,
            budget=budget,
            seed=sparse_seed,
            ecosystem=ecosystem,
            exploit_probability=sparse_exploit_probability,
        )

    return BackendsBenchmarkReport(
        trials=trials,
        python_trials=python_trials,
        replicas=replicas,
        vulnerabilities=len(scenario.catalog),
        ecosystem=ecosystem,
        exploit_probability=exploit_probability,
        budget=budget,
        seed=seed,
        repeats=repeats,
        cpu_count=os.cpu_count() or 1,
        worker_counts=tuple(worker_counts),
        timings=tuple(timings),
        sparse=sparse,
        memory_ceiling_mb=memory_ceiling_mb,
    )


def _sparse_sweep(
    *,
    size: int,
    trials: int,
    workers: int,
    budget: int,
    seed: int,
    ecosystem: str,
    exploit_probability: float,
) -> SparseSweepResult:
    """Phase B: the budgeted sparse campaign as one shm kernel call."""
    if trials <= 0 or workers <= 0:
        raise AnalysisError("sparse trials and workers must be positive")
    start = time.perf_counter()
    matrix, _catalog = sparse_ecosystem_matrix(
        ecosystem=ecosystem,
        population_size=size,
        seed=seed,
        exploit_probability=exploit_probability,
    )
    build_seconds = time.perf_counter() - start
    engine = GridCampaignEngine.from_matrix(matrix, backend="shm", chunk_rows=size)
    request = GridPointRequest(tolerances=SPARSE_TOLERANCES, worst_case=budget)
    with _environment({WORKERS_ENV_VAR: str(workers)}):
        begin = time.perf_counter()
        engine.estimate_grid((request,), trials=trials, seed=seed)
        campaign_seconds = time.perf_counter() - begin
    return SparseSweepResult(
        population_size=size,
        trials=trials,
        nnz=matrix.nnz,
        workers=workers,
        budget=budget,
        build_seconds=build_seconds,
        campaign_seconds=campaign_seconds,
        peak_rss_kb=peak_rss_kb(),
    )


def write_backends_snapshot(report: BackendsBenchmarkReport, path: str) -> None:
    """Write a backend comparison report to ``path`` as indented JSON."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")
    except OSError as error:
        raise AnalysisError(
            f"cannot write benchmark snapshot to {path!r}: {error}"
        ) from error
