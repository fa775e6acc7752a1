"""Ablation: diversity management strategies under a constrained ecosystem.

DESIGN.md §6 calls out the assignment strategy as a design choice worth
ablating.  This experiment deploys the same number of replicas with three
strategies over the same candidate configurations:

- *planner* — the entropy-maximizing water-filling planner (Lazarus-style
  managed deployment);
- *proportional* — replicas follow component market shares (what an unmanaged
  permissionless population converges to);
- *monoculture* — everyone picks the most popular configuration (worst case).

For each strategy it reports the census entropy, the largest configuration
share, whether a single shared vulnerability can violate BFT safety, and the
Monte-Carlo violation probability — quantifying how much active diversity
management buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.monte_carlo import estimate_violation_probability
from repro.analysis.report import Table
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import ExperimentError
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction
from repro.datasets.software_ecosystem import SyntheticEcosystem, default_ecosystem
from repro.diversity.planner import AssignmentPlan, EntropyPlanner
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class AblationRow:
    """Outcome of one assignment strategy."""

    strategy: str
    entropy_bits: float
    kappa: int
    largest_share: float
    single_fault_violates_bft: bool
    violation_probability: float


@dataclass(frozen=True)
class DiversityAblationResult:
    """All strategies for one deployment size."""

    replica_count: int
    candidate_count: int
    rows: Tuple[AblationRow, ...]
    planner_beats_baselines: bool


def _candidate_labels(ecosystem: SyntheticEcosystem, per_kind_limit: int) -> Sequence[str]:
    """Flatten the ecosystem into whole-configuration candidate labels.

    Every combination of the top ``per_kind_limit`` components per kind
    becomes one candidate label; the proportional baseline weights each label
    by the product of its components' market shares.
    """
    labels = ["candidate-0"]
    # Build labels and weights jointly in _candidate_weights; this helper only
    # returns the label list for the planner.
    return [label for label, _ in _candidate_weights(ecosystem, per_kind_limit)]


def _candidate_weights(
    ecosystem: SyntheticEcosystem, per_kind_limit: int
) -> Sequence[Tuple[str, float]]:
    """(label, popularity weight) pairs for the candidate configurations."""
    if per_kind_limit < 1:
        raise ExperimentError("per-kind limit must be positive")
    combos: Sequence[Tuple[str, float]] = [("cfg", 1.0)]
    for market in ecosystem.markets:
        shares = sorted(
            market.normalized_shares().items(), key=lambda item: -item[1]
        )[:per_kind_limit]
        combos = [
            (f"{label}|{market.kind.value}:{name}", weight * share)
            for label, weight in combos
            for name, share in shares
        ]
    return combos


def run_diversity_ablation(
    *,
    replica_count: int = 60,
    per_kind_limit: int = 2,
    ecosystem: SyntheticEcosystem = None,
    vulnerability_probability: float = 0.3,
    trials: int = 1500,
    seed: int = 31,
) -> DiversityAblationResult:
    """Run the diversity-management ablation."""
    if replica_count < 4:
        raise ExperimentError("at least 4 replicas are required")
    ecosystem = ecosystem or default_ecosystem()
    weights = _candidate_weights(ecosystem, per_kind_limit)
    labels = [label for label, _ in weights]
    popularity = dict(weights)
    planner = EntropyPlanner(labels)

    plans: Dict[str, AssignmentPlan] = {
        "planner (entropy-maximizing)": planner.plan(replica_count),
        "proportional (market-driven)": planner.plan_proportional(replica_count, popularity),
        "monoculture (most popular)": planner.plan_monoculture(replica_count),
    }

    tolerance = tolerated_fault_fraction(ProtocolFamily.BFT)
    rows = []
    for index, (strategy, plan) in enumerate(plans.items()):
        census: ConfigurationDistribution = plan.as_distribution()
        largest = max(census.probabilities())
        estimate = estimate_violation_probability(
            census,
            family=ProtocolFamily.BFT,
            vulnerability_probability=vulnerability_probability,
            exploit_budget=1,
            trials=trials,
            seed=seed + index,
        )
        rows.append(
            AblationRow(
                strategy=strategy,
                entropy_bits=census.entropy(),
                kappa=census.support_size(),
                largest_share=largest,
                single_fault_violates_bft=largest >= tolerance,
                violation_probability=estimate.violation_probability,
            )
        )

    planner_row = rows[0]
    planner_wins = all(
        planner_row.entropy_bits >= other.entropy_bits - 1e-9
        and planner_row.violation_probability <= other.violation_probability + 1e-9
        for other in rows[1:]
    )
    return DiversityAblationResult(
        replica_count=replica_count,
        candidate_count=len(labels),
        rows=tuple(rows),
        planner_beats_baselines=planner_wins,
    )


def ablation_table(result: DiversityAblationResult) -> Table:
    """The ablation as a printable table."""
    table = Table(
        headers=(
            "strategy",
            "entropy (bits)",
            "kappa",
            "largest share",
            "1 fault breaks BFT",
            "P[violation]",
        )
    )
    for row in result.rows:
        table.add_row(
            row.strategy,
            row.entropy_bits,
            row.kappa,
            row.largest_share,
            row.single_fault_violates_bft,
            row.violation_probability,
        )
    return table


@dataclass(frozen=True)
class DiversityAblationParams:
    """Orchestrator parameters for the diversity-management ablation."""

    replica_count: int = 60
    per_kind_limit: int = 2
    vulnerability_probability: float = 0.3
    trials: int = 1500
    seed: int = 31


def build_payload(params: DiversityAblationParams = None) -> ResultPayload:
    """Run the ablation as a structured payload."""
    params = params or DiversityAblationParams()
    result = run_diversity_ablation(
        replica_count=params.replica_count,
        per_kind_limit=params.per_kind_limit,
        vulnerability_probability=params.vulnerability_probability,
        trials=params.trials,
        seed=params.seed,
    )
    table = ablation_table(result)
    table.title = "strategy_ablation"
    return ResultPayload(
        tables=(table,),
        metrics={
            "candidate_count": result.candidate_count,
            "planner_beats_baselines": result.planner_beats_baselines,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic diversity-ablation stdout report."""
    return "\n".join(
        [
            f"Diversity-management ablation: {result.params['replica_count']} replicas over "
            f"{result.metrics['candidate_count']} candidate configurations",
            result.tables[0].render(),
            "",
            f"the planner dominates both baselines: {result.metrics['planner_beats_baselines']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="diversity_ablation",
    title="Diversity-management ablation: planner vs proportional vs monoculture",
    build=build_payload,
    render=render_result,
    params_type=DiversityAblationParams,
    tags=("extension", "monte-carlo"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the diversity-management ablation and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
