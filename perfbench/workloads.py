"""The two compute workloads: ``grid_sweep`` and ``population_scale``.

Both call the library in-process, one op after another.  Their inputs are
pure functions of the run seed, and each op draws a fresh seed of its own,
so no op can be answered from a cache and two runs with the same seed do
the same work.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backend import get_backend
from repro.core.resilience import ProtocolFamily
from repro.faults import engine as engine_module
from repro.faults import scenarios
from repro.faults.engine import BatchCampaignEngine, GridCampaignEngine, GridPointRequest
from repro.faults.matrix import PopulationMatrix

from perfbench import harness
from perfbench.spans import Tracer

FAMILIES = (ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO)

#: Full-size ops each set-up runs before the timed blocks.
WARMUP_OPS = 3


def op_seed(seed: int, index: int) -> int:
    """The seed of op ``index`` (negative: set-up ops) of a run seeded ``seed``."""
    return random.Random(f"{seed}/{index}").randrange(1 << 30)


def exposed_counts(matrix: PopulationMatrix) -> Dict[str, int]:
    """Replicas exposed to each vulnerability of ``matrix``."""
    if matrix.is_sparse:
        per_column = Counter(matrix.sparse_exposure().indices)
        return {vuln: per_column.get(index, 0) for index, vuln in enumerate(matrix.vulnerability_ids)}
    return {vuln: len(matrix.exposed_row_indices(vuln)) for vuln in matrix.vulnerability_ids}


def grid_cells(matrix: PopulationMatrix, estimates: Sequence[Any], trials: int) -> int:
    """Trials x exposed replica-vulnerability pairs over every grid point."""
    exposed = exposed_counts(matrix)
    return trials * sum(exposed[vuln] for estimate in estimates for vuln in estimate.exploited)


def patch_compute_layers(tracer: Tracer) -> None:
    """Wrap the kernel, engine and build functions the library calls internally."""
    backend = get_backend()
    for name in ("campaign_grid", "sparse_grid_partials", "masked_power_sums", "sparse_masked_power_sums"):
        tracer.patch(backend, name, f"kernel.{name}")
    tracer.patch(PopulationMatrix, "most_damaging", "engine.most_damaging")
    for name in ("merge_sparse_partials", "finalize_sparse_point", "merge_campaign_grid_batches"):
        tracer.patch(engine_module, name, f"engine.{name}")
    tracer.patch(scenarios, "stream_replica_chunks", "build.stream_replica_chunks")
    tracer.patch(PopulationMatrix, "from_replica_chunks", "build.from_replica_chunks")


class ComputeWorkload:
    """Shared loop of the in-process workloads."""

    name = ""
    serve = False

    def __init__(self, seed: int, tracer: Tracer, workdir: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.first: Optional[Tuple[int, Any]] = None
        self._setups = 0

    def setup(self) -> None:
        self._prepare()
        self._setups += 1
        for index in range(WARMUP_OPS):
            self.op(-(self._setups * WARMUP_OPS + index))

    def discard(self) -> None:
        """Nothing outlives a set-up here."""

    def close(self) -> None:
        """Nothing to release."""

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
            patch_compute_layers(self.tracer)
        self.tracer.enabled = traced
        try:
            return harness.run_sync_block(
                self._timed_op,
                self.count,
                log,
                traced=traced,
                seconds=seconds,
                min_ops=min_ops,
                max_ops=max_ops,
            )
        finally:
            self.tracer.enabled = False
            self.tracer.unpatch_all()

    def _timed_op(self, index: int) -> Tuple[int, Any]:
        units, info = self.op(index)
        if self.first is None:
            self.first = (index, info)
        return units, info

    def layer_extra(self) -> Dict[str, float]:
        return {}

    def end_round(self) -> List[str]:
        return []

    # -- per workload --------------------------------------------------------------

    def _prepare(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Tuple[int, Any]:
        raise NotImplementedError

    def count(self, info: Any) -> Dict[str, int]:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError


class GridSweep(ComputeWorkload):
    """One fused 24-point campaign grid per op over a fixed population.

    The fused ``campaign_grid`` kernel does nearly all the work; no build,
    orchestrator or serve code runs inside an op.
    """

    name = "grid_sweep"
    REPLICAS = 150
    TRIALS = 500
    BUDGETS = tuple(range(1, 9))
    PROBABILITIES = (0.45, 0.6, 0.75)

    def _prepare(self) -> None:
        with self.tracer.span("build.ecosystem_scenario"):
            scenario = scenarios.ecosystem_scenario(
                ecosystem="default",
                population_size=self.REPLICAS,
                seed=self.seed,
                exploit_probability=self.PROBABILITIES[0],
            )
        with self.tracer.span("build.PopulationMatrix.build"):
            matrix = PopulationMatrix.build(scenario.population, scenario.catalog)
        self.scenario = scenario
        self.engine = GridCampaignEngine(scenario.population, scenario.catalog, matrix=matrix)
        tolerances = scenarios.family_tolerances(FAMILIES)
        self.requests = tuple(
            GridPointRequest(
                tolerances=tolerances,
                worst_case=budget,
                success_probability=probability,
                seed_offset=index,
            )
            for index, (budget, probability) in enumerate(
                (budget, probability) for budget in self.BUDGETS for probability in self.PROBABILITIES
            )
        )

    def op(self, index: int) -> Tuple[int, Any]:
        seed = op_seed(self.seed, index)
        with self.tracer.span("engine.estimate_grid"):
            estimates = self.engine.estimate_grid(self.requests, trials=self.TRIALS, seed=seed)
        return self.TRIALS * len(self.requests), (seed, estimates)

    def count(self, info: Any) -> Dict[str, int]:
        _, estimates = info
        return {
            "kernel.cells": grid_cells(self.engine.matrix, estimates, self.TRIALS),
            "engine.chunks": self.engine.last_chunk_count,
        }

    def check(self) -> List[str]:
        """The first timed op equals the looped per-point path exactly."""
        if self.first is None:
            return ["no op completed"]
        index, (seed, estimates) = self.first
        looped = {
            probability: BatchCampaignEngine(case.population, case.catalog)
            for probability, case in (
                (
                    probability,
                    scenarios.ecosystem_scenario(
                        ecosystem="default",
                        population_size=self.REPLICAS,
                        seed=self.seed,
                        exploit_probability=probability,
                    ),
                )
                for probability in self.PROBABILITIES
            )
        }
        failures = []
        for point, (request, estimate) in enumerate(zip(self.requests, estimates)):
            for position, family in enumerate(FAMILIES):
                expected = looped[request.success_probability].estimate_worst_case(
                    max_vulnerabilities=request.worst_case,
                    trials=self.TRIALS,
                    seed=seed + request.seed_offset,
                    family=family,
                )
                if estimate.estimate_at(position) != expected:
                    failures.append(f"op {index} point {point} {family.name}: fused != looped")
        return failures


class PopulationScale(ComputeWorkload):
    """Stream a fresh 5,000-replica population into CSR, then a sparse grid.

    The streamed build is most of each op and the row-chunked sparse kernel
    the rest (``chunk_rows`` splits the rows into three chunks to merge).
    """

    name = "population_scale"
    REPLICAS = 5_000
    TRIALS = 32
    BUDGETS = (1, 2, 4)
    TOLERANCES = (1.0 / 3.0, 0.5)
    CHUNK_ROWS = 2_048
    EXPLOIT_PROBABILITY = 0.45

    def _prepare(self) -> None:
        self.requests = tuple(
            GridPointRequest(tolerances=self.TOLERANCES, worst_case=budget, seed_offset=index)
            for index, budget in enumerate(self.BUDGETS)
        )

    def op(self, index: int) -> Tuple[int, Any]:
        seed = op_seed(self.seed, index)
        with self.tracer.span("build.sparse_ecosystem_matrix"):
            matrix, catalog = scenarios.sparse_ecosystem_matrix(
                ecosystem="default",
                population_size=self.REPLICAS,
                seed=seed,
                exploit_probability=self.EXPLOIT_PROBABILITY,
            )
        engine = GridCampaignEngine.from_matrix(matrix, chunk_rows=self.CHUNK_ROWS)
        with self.tracer.span("engine.estimate_grid"):
            estimates = engine.estimate_grid(self.requests, trials=self.TRIALS, seed=seed)
        return self.REPLICAS, (seed, matrix, catalog, engine.last_chunk_count, estimates)

    def count(self, info: Any) -> Dict[str, int]:
        _, matrix, _, chunks, estimates = info
        return {
            "kernel.cells": grid_cells(matrix, estimates, self.TRIALS),
            "engine.chunks": chunks,
            "build.nnz": matrix.nnz,
        }

    def check(self) -> List[str]:
        """The first timed op equals a dense build of the same population exactly."""
        if self.first is None:
            return ["no op completed"]
        index, (seed, matrix, catalog, _, estimates) = self.first
        population = scenarios.resolve_ecosystem("default").sample_population(self.REPLICAS, seed=seed)
        dense = PopulationMatrix.build(population, catalog, layout="dense")
        expected = GridCampaignEngine.from_matrix(dense).estimate_grid(
            self.requests, trials=self.TRIALS, seed=seed
        )
        failures = []
        if not matrix.is_sparse or dense.is_sparse:
            failures.append(f"op {index}: expected a sparse op matrix and a dense reference")
        if tuple(estimates) != tuple(expected):
            failures.append(f"op {index}: sparse grid != dense grid")
        return failures
