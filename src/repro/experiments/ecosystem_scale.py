"""Violation probability vs ecosystem scale through the sparse campaign plane.

The paper's threat model is ecosystem-sized — "a zero-day in the dominant
operating system" compromising a large fraction of *all* replicas — so the
replica count itself is a first-order knob.  This experiment sweeps it: each
scale point streams an ecosystem population straight into a sparse CSR
matrix (:func:`repro.faults.scenarios.sparse_ecosystem_matrix`; the
population is never materialized) and runs worst-case campaigns through the
row-chunked :class:`~repro.faults.engine.GridCampaignEngine`,
judging the BFT (1/3) and majority (1/2) tolerances on shared draws.

Expected shape: concentration of measure.  The dominant-component compromise
fraction converges to ``share × p_exploit`` as the population grows, so a
tolerance below that product sees its violation probability rise toward 1
with scale while a tolerance above it falls toward 0 — small deployments are
noisy, ecosystem-scale ones are deterministic.  With the default knobs
(share 0.78, ``p_exploit`` 0.45) the BFT threshold sits just *under* the
limit and the majority threshold well *above* it, so the two rows diverge as
the replica count climbs.

The default sizes cover the small end of the 10³→10⁶ sweep so the golden
stays cheap; any size can be requested via params (the spec is cached,
sharded and servable like every other experiment), and CI's scale-smoke job
runs it at 10⁶ and 10⁷ replicas against its memory ceilings.  Every matrix,
sparse- or dense-built, runs on the one CSR kernel and its counter-based RNG
stream, so the numbers are identical on every compute backend and to a
dense-built matrix at overlapping scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.report import Table
from repro.core.exceptions import ExperimentError
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)
from repro.faults.engine import GridCampaignEngine, GridPointRequest
from repro.faults.scenarios import sparse_ecosystem_matrix

#: Replica-range chunk used by the sweep's engines — small enough that the
#: larger default sizes span several chunks, so the golden numbers pin the
#: chunk-invisibility contract (chunked == unchunked) on every run.
SCALE_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class EcosystemScaleRow:
    """One population size's sparse worst-case campaign estimates."""

    population_size: int
    nnz: int
    density: float
    row_chunks: int
    violation_probability_bft: float
    violation_probability_majority: float
    mean_compromised_fraction: float


@dataclass(frozen=True)
class EcosystemScaleResult:
    """All scale points, ascending, plus the shared scenario knobs."""

    ecosystem: str
    catalog_size: int
    exploit_probability: float
    budget: int
    rows: Tuple[EcosystemScaleRow, ...]


def run_ecosystem_scale(
    *,
    ecosystem: str = "default",
    sizes: Sequence[int] = (1_000, 4_000, 16_000),
    budget: int = 1,
    exploit_probability: float = 0.45,
    trials: int = 160,
    seed: int = 17,
    chunk_rows: int = SCALE_CHUNK_ROWS,
) -> EcosystemScaleResult:
    """Sweep the replica count through the streaming sparse campaign path."""
    if not sizes:
        raise ExperimentError("at least one population size is required")
    if any(size <= 0 for size in sizes):
        raise ExperimentError("population sizes must be positive")
    if budget <= 0:
        raise ExperimentError(f"exploit budget must be positive, got {budget}")
    rows = []
    catalog_size = 0
    for index, size in enumerate(sorted(sizes)):
        matrix, catalog = sparse_ecosystem_matrix(
            ecosystem=ecosystem,
            population_size=size,
            seed=seed,
            exploit_probability=exploit_probability,
        )
        if not matrix.is_sparse:
            raise ExperimentError(
                "ecosystem_scale requires the sparse build path"
            )
        catalog_size = len(catalog)
        engine = GridCampaignEngine.from_matrix(matrix, chunk_rows=chunk_rows)
        point = engine.estimate_grid(
            (
                GridPointRequest(
                    tolerances=(1.0 / 3.0, 0.5),
                    worst_case=budget,
                    seed_offset=index,
                ),
            ),
            trials=trials,
            seed=seed,
        )[0]
        bft = point.estimate_at(0)
        majority = point.estimate_at(1)
        rows.append(
            EcosystemScaleRow(
                population_size=size,
                nnz=matrix.nnz,
                density=matrix.density,
                row_chunks=engine.last_chunk_count,
                violation_probability_bft=bft.violation_probability,
                violation_probability_majority=majority.violation_probability,
                mean_compromised_fraction=bft.mean_compromised_fraction,
            )
        )
    return EcosystemScaleResult(
        ecosystem=ecosystem,
        catalog_size=catalog_size,
        exploit_probability=exploit_probability,
        budget=budget,
        rows=tuple(rows),
    )


def ecosystem_scale_table(result: EcosystemScaleResult) -> Table:
    """The scale sweep as a printable table."""
    table = Table(
        headers=(
            "replicas",
            "exposed cells",
            "density",
            "row chunks",
            "P[violation] BFT (1/3)",
            "P[violation] majority (1/2)",
            "mean compromised fraction",
        )
    )
    for row in result.rows:
        table.add_row(
            row.population_size,
            row.nnz,
            row.density,
            row.row_chunks,
            row.violation_probability_bft,
            row.violation_probability_majority,
            row.mean_compromised_fraction,
        )
    return table


@dataclass(frozen=True)
class EcosystemScaleParams:
    """Orchestrator parameters for the ecosystem-scale sweep."""

    ecosystem: str = "default"
    sizes: Tuple[int, ...] = (1_000, 4_000, 16_000)
    budget: int = 1
    exploit_probability: float = 0.45
    trials: int = 160
    seed: int = 17
    chunk_rows: int = SCALE_CHUNK_ROWS


def build_payload(params: EcosystemScaleParams = None) -> ResultPayload:
    """Run the scale sweep as a structured payload."""
    params = params or EcosystemScaleParams()
    result = run_ecosystem_scale(
        ecosystem=params.ecosystem,
        sizes=tuple(params.sizes),
        budget=params.budget,
        exploit_probability=params.exploit_probability,
        trials=params.trials,
        seed=params.seed,
        chunk_rows=params.chunk_rows,
    )
    table = ecosystem_scale_table(result)
    table.title = "scale_sweep"
    return ResultPayload(
        tables=(table,),
        metrics={
            "ecosystem": result.ecosystem,
            "catalog_size": result.catalog_size,
            "exploit_probability": result.exploit_probability,
            "budget": result.budget,
            "largest_population": result.rows[-1].population_size,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The ecosystem-scale stdout report."""
    return "\n".join(
        [
            "Violation probability vs ecosystem scale "
            f"({result.metrics['ecosystem']} ecosystem, worst-case budget "
            f"{result.metrics['budget']}, {result.params['trials']} trials, "
            "sparse streaming build)",
            result.tables[0].render(),
            "",
            "largest population swept: "
            f"{result.metrics['largest_population']} replicas",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="ecosystem_scale",
    title="Sparse campaigns: violation probability vs ecosystem scale",
    build=build_payload,
    render=render_result,
    params_type=EcosystemScaleParams,
    tags=("extension", "campaign", "scale"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the ecosystem-scale sweep and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
