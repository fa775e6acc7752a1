"""Safety-violation probability over a churning permissionless population.

Challenge 1 of the paper: in a permissionless system no manager controls the
configuration census — it drifts as participants join and leave, pulled
toward the ecosystem's market shares (monocultures self-reinforce).  This
experiment makes the consequence quantitative: one continuous churn
trajectory is snapshotted at evenly spaced steps
(:func:`repro.faults.scenarios.churned_scenarios`), each snapshot is
re-cataloged, and the :class:`~repro.faults.engine.GridCampaignEngine`
estimates the worst-case bounded-budget violation probability at every
checkpoint through the fused grid kernel (each checkpoint has its own
population, so it runs as a single-point grid on its own engine).

Expected shape: the violation probability drifts with the census even while
the entropy only wobbles — new joiners follow the ecosystem's market shares,
so the dominant fault domains keep growing.  Diversity, and with it the
safety margin, is a moving target that needs continuous monitoring rather
than a one-off deployment decision.

The campaign kernels draw from a counter-based RNG stream, so the numbers
are identical on every compute backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.report import Table
from repro.core.exceptions import ExperimentError
from repro.core.resilience import ProtocolFamily
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)
from repro.faults.engine import GridCampaignEngine
from repro.faults.scenarios import churn_checkpoint_grid, churned_scenarios


@dataclass(frozen=True)
class CampaignChurnRow:
    """One churn checkpoint's census and batched-campaign estimates."""

    step: int
    population_size: int
    entropy_bits: float
    violation_probability_bft: float
    mean_compromised_fraction: float


@dataclass(frozen=True)
class CampaignChurnResult:
    """The checkpoint series, step 0 first."""

    rows: Tuple[CampaignChurnRow, ...]
    entropy_drift: float
    violation_drift: float


def run_campaign_churn(
    *,
    ecosystem: str = "diverse",
    population_size: int = 40,
    steps: int = 120,
    checkpoints: int = 4,
    join_rate: float = 0.6,
    leave_rate: float = 0.35,
    churn_seed: int = 5,
    exploit_probability: float = 0.6,
    budget: int = 2,
    trials: int = 300,
    seed: int = 29,
) -> CampaignChurnResult:
    """Estimate violation probability along one churn trajectory."""
    if budget <= 0:
        raise ExperimentError(f"exploit budget must be positive, got {budget}")
    trajectory = churned_scenarios(
        ecosystem=ecosystem,
        population_size=population_size,
        steps=steps,
        checkpoints=checkpoints,
        join_rate=join_rate,
        leave_rate=leave_rate,
        churn_seed=churn_seed,
        population_seed=seed,
        exploit_probability=exploit_probability,
    )
    rows = []
    for index, (step, scenario) in enumerate(trajectory):
        engine = GridCampaignEngine(scenario.population, scenario.catalog)
        # ``seed_offset=index`` keeps the looped sweep's ``seed + index``
        # sub-stream, so the checkpoint numbers are bit-identical to it.
        estimate = engine.estimate_grid(
            churn_checkpoint_grid(
                index, budget=budget, families=(ProtocolFamily.BFT,)
            ),
            trials=trials,
            seed=seed,
        )[0].estimate_at(0)
        rows.append(
            CampaignChurnRow(
                step=step,
                population_size=len(scenario.population),
                entropy_bits=scenario.population.configuration_census().entropy(),
                violation_probability_bft=estimate.violation_probability,
                mean_compromised_fraction=estimate.mean_compromised_fraction,
            )
        )
    return CampaignChurnResult(
        rows=tuple(rows),
        entropy_drift=rows[-1].entropy_bits - rows[0].entropy_bits,
        violation_drift=rows[-1].violation_probability_bft
        - rows[0].violation_probability_bft,
    )


def campaign_churn_table(result: CampaignChurnResult) -> Table:
    """The churn trajectory as a printable table."""
    table = Table(
        headers=(
            "churn step",
            "replicas",
            "entropy (bits)",
            "P[violation] BFT (1/3)",
            "mean compromised fraction",
        )
    )
    for row in result.rows:
        table.add_row(
            row.step,
            row.population_size,
            row.entropy_bits,
            row.violation_probability_bft,
            row.mean_compromised_fraction,
        )
    return table


@dataclass(frozen=True)
class CampaignChurnParams:
    """Orchestrator parameters for the churned-population campaign sweep."""

    ecosystem: str = "diverse"
    population_size: int = 40
    steps: int = 120
    checkpoints: int = 4
    join_rate: float = 0.6
    leave_rate: float = 0.35
    churn_seed: int = 5
    exploit_probability: float = 0.6
    budget: int = 2
    trials: int = 300
    seed: int = 29


def build_payload(params: CampaignChurnParams = None) -> ResultPayload:
    """Run the churn-trajectory sweep as a structured payload."""
    params = params or CampaignChurnParams()
    result = run_campaign_churn(
        ecosystem=params.ecosystem,
        population_size=params.population_size,
        steps=params.steps,
        checkpoints=params.checkpoints,
        join_rate=params.join_rate,
        leave_rate=params.leave_rate,
        churn_seed=params.churn_seed,
        exploit_probability=params.exploit_probability,
        budget=params.budget,
        trials=params.trials,
        seed=params.seed,
    )
    table = campaign_churn_table(result)
    table.title = "churn_trajectory"
    return ResultPayload(
        tables=(table,),
        metrics={
            "entropy_drift": result.entropy_drift,
            "violation_drift": result.violation_drift,
            "checkpoints": len(result.rows),
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The campaign-churn stdout report."""
    return "\n".join(
        [
            "Safety-violation probability along a churn trajectory "
            f"({result.params['ecosystem']} ecosystem, "
            f"{result.params['steps']} steps, "
            f"{result.params['trials']} trials per checkpoint)",
            result.tables[0].render(),
            "",
            f"entropy drift over the run   : {result.metrics['entropy_drift']:+.4f} bits",
            f"violation-probability drift  : {result.metrics['violation_drift']:+.4f}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="campaign_churn",
    title="Batched campaigns: violation probability under population churn",
    build=build_payload,
    render=render_result,
    params_type=CampaignChurnParams,
    tags=("extension", "campaign", "permissionless"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the churn-trajectory sweep and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
