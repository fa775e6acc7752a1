"""Safety-violation probability as a function of the adversary's budget.

The Section II-C condition bounds the *sum* of per-vulnerability compromised
powers, so the attacker's exploit budget ``m`` (how many distinct zero-days
they can weaponize simultaneously) is a first-order knob.  This experiment
sweeps that budget against one ecosystem-sampled population: the
:class:`~repro.faults.engine.GridCampaignEngine` runs the *entire* sweep —
every budget, hundreds of randomized worst-case campaigns each — as one
fused backend kernel call, judging the BFT (1/3) and majority (1/2)
tolerances on the same shared exploit draws.

Expected shape: the violation probability grows monotonically with the
budget — each extra exploit can only add compromised power — and the gap
between the two tolerance rows shows how much headroom hybrid/Nakamoto
deployments buy.

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
)
from repro.faults.engine import CampaignEstimate, GridCampaignEngine
from repro.faults.scenarios import budget_grid, ecosystem_scenario


@dataclass(frozen=True)
class CampaignBudgetRow:
    """One adversary budget's batched-campaign estimates."""

    budget: int
    exploited: int
    violation_probability_bft: float
    violation_probability_majority: float
    mean_compromised_fraction: float


@dataclass(frozen=True)
class CampaignBudgetResult:
    """All budgets, in sweep order, plus the scenario description."""

    scenario: str
    population_size: int
    catalog_size: int
    entropy_bits: float
    rows: Tuple[CampaignBudgetRow, ...]
    monotone_increasing: bool


def run_campaign_budget(
    *,
    ecosystem: str = "diverse",
    population_size: int = 48,
    budgets: Sequence[int] = (1, 2, 3, 4, 6),
    exploit_probability: float = 0.55,
    trials: int = 400,
    seed: int = 11,
) -> CampaignBudgetResult:
    """Sweep the adversary's exploit budget with batched campaign trials."""
    if not budgets:
        raise ExperimentError("at least one adversary budget is required")
    if any(budget <= 0 for budget in budgets):
        raise ExperimentError("adversary budgets must be positive")
    scenario = ecosystem_scenario(
        ecosystem=ecosystem,
        population_size=population_size,
        seed=seed,
        exploit_probability=exploit_probability,
    )
    engine = GridCampaignEngine(scenario.population, scenario.catalog)
    # The whole sweep is one fused kernel call: every budget is a grid point
    # at seed offset ``index`` (the looped sweep's ``seed + index``), and both
    # tolerance levels judge the same sampled campaigns from one exploit draw.
    estimates = engine.estimate_grid(
        budget_grid(
            tuple(budgets),
            families=(ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO),
        ),
        trials=trials,
        seed=seed,
    )
    rows = []
    for budget, point in zip(budgets, estimates):
        bft: CampaignEstimate = point.estimate_at(0)
        majority = point.estimate_at(1)
        rows.append(
            CampaignBudgetRow(
                budget=budget,
                exploited=len(bft.exploited),
                violation_probability_bft=bft.violation_probability,
                violation_probability_majority=majority.violation_probability,
                mean_compromised_fraction=bft.mean_compromised_fraction,
            )
        )
    series = [row.violation_probability_bft for row in rows]
    monotone = all(later >= earlier - 0.05 for earlier, later in zip(series, series[1:]))
    return CampaignBudgetResult(
        scenario=scenario.label,
        population_size=len(scenario.population),
        catalog_size=len(scenario.catalog),
        entropy_bits=scenario.population.configuration_census().entropy(),
        rows=tuple(rows),
        monotone_increasing=monotone,
    )


def campaign_budget_table(result: CampaignBudgetResult) -> Table:
    """The budget sweep as a printable table."""
    table = Table(
        headers=(
            "budget m",
            "exploited",
            "P[violation] BFT (1/3)",
            "P[violation] majority (1/2)",
            "mean compromised fraction",
        )
    )
    for row in result.rows:
        table.add_row(
            row.budget,
            row.exploited,
            row.violation_probability_bft,
            row.violation_probability_majority,
            row.mean_compromised_fraction,
        )
    return table


@dataclass(frozen=True)
class CampaignBudgetParams:
    """Orchestrator parameters for the adversary-budget sweep."""

    ecosystem: str = "diverse"
    population_size: int = 48
    budgets: Tuple[int, ...] = (1, 2, 3, 4, 6)
    exploit_probability: float = 0.55
    trials: int = 400
    seed: int = 11


def build_payload(params: CampaignBudgetParams) -> ResultPayload:
    """Run the budget sweep as a structured payload."""
    result = run_campaign_budget(
        ecosystem=params.ecosystem,
        population_size=params.population_size,
        budgets=tuple(params.budgets),
        exploit_probability=params.exploit_probability,
        trials=params.trials,
        seed=params.seed,
    )
    table = campaign_budget_table(result)
    table.title = "budget_sweep"
    return ResultPayload(
        tables=(table,),
        metrics={
            "scenario": result.scenario,
            "catalog_size": result.catalog_size,
            "entropy_bits": result.entropy_bits,
            "monotone_increasing": result.monotone_increasing,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The campaign-budget stdout report."""
    return "\n".join(
        [
            "Safety-violation probability vs adversary exploit budget "
            f"({result.metrics['scenario']}, {result.params['trials']} trials)",
            result.tables[0].render(),
            "",
            "violation probability grows with the budget: "
            f"{result.metrics['monotone_increasing']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="campaign_budget",
    title="Batched campaigns: violation probability vs adversary budget",
    build=build_payload,
    render=render_result,
    params_type=CampaignBudgetParams,
    tags=("extension", "campaign"),
)
