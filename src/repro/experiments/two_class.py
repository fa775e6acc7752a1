"""The paper's concluding proposal: two replica classes with different weights.

The conclusion of the paper sketches a mitigation for permissionless systems:
keep both attested and non-attested replicas, but give them different voting
weights.  This experiment implements that proposal with the
:class:`~repro.diversity.policy.TwoClassWeightPolicy` and sweeps the
attested:unattested weight ratio, reporting for each ratio:

- the entropy of the effective-power census (unattested power is lumped into
  one worst-case "unknown" fault domain);
- the effective-power fraction the unattested class would hand an attacker in
  the worst case;
- the Monte-Carlo safety-violation probability of the resulting census.

Expected shape: as attested replicas gain weight, the unknown fault domain's
effective share falls below the protocol tolerance and the violation
probability drops — quantifying the benefit the conclusion claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.monte_carlo import estimate_violation_probability
from repro.analysis.report import Table
from repro.core.exceptions import ExperimentError
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily
from repro.datasets.software_ecosystem import SyntheticEcosystem, default_ecosystem
from repro.diversity.policy import TwoClassWeightPolicy
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class TwoClassRow:
    """Outcome of one attested:unattested weight ratio."""

    weight_ratio: float
    census_entropy_bits: float
    unattested_effective_fraction: float
    violation_probability: float


@dataclass(frozen=True)
class TwoClassResult:
    """The weight-ratio sweep."""

    population_size: int
    attested_population_fraction: float
    rows: Tuple[TwoClassRow, ...]
    improves_with_weight: bool


def run_two_class(
    *,
    population_size: int = 300,
    attested_population_fraction: float = 0.4,
    weight_ratios: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    ecosystem: SyntheticEcosystem = None,
    vulnerability_probability: float = 0.3,
    trials: int = 1500,
    seed: int = 23,
) -> TwoClassResult:
    """Run the two-class weight-policy sweep."""
    if population_size < 10:
        raise ExperimentError("the population should have at least 10 replicas")
    if not 0.0 < attested_population_fraction < 1.0:
        raise ExperimentError("the attested fraction must be strictly between 0 and 1")
    if not weight_ratios:
        raise ExperimentError("at least one weight ratio is required")
    ecosystem = ecosystem or default_ecosystem()
    population: ReplicaPopulation = ecosystem.sample_population(
        population_size, seed=seed, attested_fraction=attested_population_fraction
    )
    rows = []
    for index, ratio in enumerate(weight_ratios):
        if ratio <= 0:
            raise ExperimentError(f"weight ratio must be positive, got {ratio}")
        policy = TwoClassWeightPolicy(attested_weight=ratio, unattested_weight=1.0)
        weighted = policy.apply(population)
        estimate = estimate_violation_probability(
            weighted.census,
            family=ProtocolFamily.BFT,
            vulnerability_probability=vulnerability_probability,
            exploit_budget=1,
            trials=trials,
            seed=seed + index,
        )
        rows.append(
            TwoClassRow(
                weight_ratio=ratio,
                census_entropy_bits=weighted.entropy,
                unattested_effective_fraction=weighted.unattested_worst_case_fraction,
                violation_probability=estimate.violation_probability,
            )
        )
    fractions = [row.unattested_effective_fraction for row in rows]
    improves = all(later <= earlier + 1e-9 for earlier, later in zip(fractions, fractions[1:]))
    return TwoClassResult(
        population_size=population_size,
        attested_population_fraction=attested_population_fraction,
        rows=tuple(rows),
        improves_with_weight=improves,
    )


def two_class_table(result: TwoClassResult) -> Table:
    """The sweep as a printable table."""
    table = Table(
        headers=(
            "attested weight ratio",
            "census entropy (bits)",
            "unattested effective fraction",
            "P[violation] BFT",
        )
    )
    for row in result.rows:
        table.add_row(
            row.weight_ratio,
            row.census_entropy_bits,
            row.unattested_effective_fraction,
            row.violation_probability,
        )
    return table


@dataclass(frozen=True)
class TwoClassParams:
    """Orchestrator parameters for the two-class weight-policy sweep."""

    population_size: int = 300
    attested_population_fraction: float = 0.4
    weight_ratios: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    vulnerability_probability: float = 0.3
    trials: int = 1500
    seed: int = 23


def build_payload(params: TwoClassParams = None) -> ResultPayload:
    """Run the weight-ratio sweep as a structured payload."""
    params = params or TwoClassParams()
    result = run_two_class(
        population_size=params.population_size,
        attested_population_fraction=params.attested_population_fraction,
        weight_ratios=tuple(params.weight_ratios),
        vulnerability_probability=params.vulnerability_probability,
        trials=params.trials,
        seed=params.seed,
    )
    table = two_class_table(result)
    table.title = "weight_ratio_sweep"
    return ResultPayload(
        tables=(table,),
        metrics={"improves_with_weight": result.improves_with_weight},
    )


def render_result(result: ExperimentResult) -> str:
    """The classic two-class stdout report."""
    fraction = result.params["attested_population_fraction"]
    return "\n".join(
        [
            "Two-class voting-weight policy "
            f"({fraction:.0%} of {result.params['population_size']} replicas attested)",
            result.tables[0].render(),
            "",
            "unattested exposure shrinks as attested weight grows: "
            f"{result.metrics['improves_with_weight']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="two_class",
    title="Two-class voting-weight policy (attested vs unattested replicas)",
    build=build_payload,
    render=render_result,
    params_type=TwoClassParams,
    tags=("extension", "monte-carlo"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the two-class experiment and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
