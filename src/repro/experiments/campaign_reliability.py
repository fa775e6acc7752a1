"""Safety-violation probability as a function of exploit reliability.

Section II-B's adversary exploits shared implementation flaws, but a
real-world exploit rarely lands on every exposed replica: sandboxing, ASLR,
version skew and plain flakiness make each attempt succeed only with some
probability.  This experiment sweeps that per-replica success probability
over a fixed ecosystem-sampled population: worst-case target selection
depends only on exposure (never on success probabilities), so the
:class:`~repro.faults.engine.GridCampaignEngine` runs the whole sweep on one
population/catalog pair as a single fused kernel call, each grid point
overriding the per-replica success probability.

Expected shape: the violation probability climbs from near 0 for unreliable
exploits toward the deterministic-campaign verdict at reliability 1.0 —
quantifying how much of the monoculture risk survives even flaky zero-days.

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
from repro.faults.engine import GridCampaignEngine
from repro.faults.scenarios import ecosystem_scenario, reliability_grid


@dataclass(frozen=True)
class CampaignReliabilityRow:
    """One exploit-success probability's batched-campaign estimates."""

    exploit_probability: float
    violation_probability_bft: float
    violation_probability_majority: float
    mean_compromised_fraction: float


@dataclass(frozen=True)
class CampaignReliabilityResult:
    """All reliability points, in sweep order."""

    population_size: int
    catalog_size: int
    budget: int
    rows: Tuple[CampaignReliabilityRow, ...]
    monotone_increasing: bool


def run_campaign_reliability(
    *,
    ecosystem: str = "diverse",
    population_size: int = 48,
    exploit_probabilities: Sequence[float] = (0.3, 0.45, 0.6, 0.75, 0.9),
    budget: int = 2,
    trials: int = 400,
    seed: int = 19,
) -> CampaignReliabilityResult:
    """Sweep exploit reliability with batched worst-case campaign trials."""
    if not exploit_probabilities:
        raise ExperimentError("at least one exploit probability is required")
    if budget <= 0:
        raise ExperimentError(f"exploit budget must be positive, got {budget}")
    # One scenario, one engine, one fused kernel call for the whole sweep:
    # only the exploit reliability varies across points, and the grid's
    # per-point success-probability override reproduces the looped sweep's
    # one-catalog-per-probability scenarios bit for bit (worst-case target
    # selection never consults success probabilities).
    scenario = ecosystem_scenario(
        ecosystem=ecosystem,
        population_size=population_size,
        seed=seed,
        exploit_probability=exploit_probabilities[0],
    )
    catalog_size = len(scenario.catalog)
    engine = GridCampaignEngine(scenario.population, scenario.catalog)
    estimates = engine.estimate_grid(
        reliability_grid(
            tuple(exploit_probabilities),
            budget=budget,
            families=(ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO),
        ),
        trials=trials,
        seed=seed,
    )
    rows = []
    for probability, point in zip(exploit_probabilities, estimates):
        bft = point.estimate_at(0)
        majority = point.estimate_at(1)
        rows.append(
            CampaignReliabilityRow(
                exploit_probability=probability,
                violation_probability_bft=bft.violation_probability,
                violation_probability_majority=majority.violation_probability,
                mean_compromised_fraction=bft.mean_compromised_fraction,
            )
        )
    series = [row.violation_probability_bft for row in rows]
    monotone = all(later >= earlier - 0.05 for earlier, later in zip(series, series[1:]))
    return CampaignReliabilityResult(
        population_size=population_size,
        catalog_size=catalog_size,
        budget=budget,
        rows=tuple(rows),
        monotone_increasing=monotone,
    )


def campaign_reliability_table(result: CampaignReliabilityResult) -> Table:
    """The reliability sweep as a printable table."""
    table = Table(
        headers=(
            "exploit success probability",
            "P[violation] BFT (1/3)",
            "P[violation] majority (1/2)",
            "mean compromised fraction",
        )
    )
    for row in result.rows:
        table.add_row(
            row.exploit_probability,
            row.violation_probability_bft,
            row.violation_probability_majority,
            row.mean_compromised_fraction,
        )
    return table


@dataclass(frozen=True)
class CampaignReliabilityParams:
    """Orchestrator parameters for the exploit-reliability sweep."""

    ecosystem: str = "diverse"
    population_size: int = 48
    exploit_probabilities: Tuple[float, ...] = (0.3, 0.45, 0.6, 0.75, 0.9)
    budget: int = 2
    trials: int = 400
    seed: int = 19


def build_payload(params: CampaignReliabilityParams) -> ResultPayload:
    """Run the reliability sweep as a structured payload."""
    result = run_campaign_reliability(
        ecosystem=params.ecosystem,
        population_size=params.population_size,
        exploit_probabilities=tuple(params.exploit_probabilities),
        budget=params.budget,
        trials=params.trials,
        seed=params.seed,
    )
    table = campaign_reliability_table(result)
    table.title = "reliability_sweep"
    return ResultPayload(
        tables=(table,),
        metrics={
            "catalog_size": result.catalog_size,
            "budget": result.budget,
            "monotone_increasing": result.monotone_increasing,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The campaign-reliability stdout report."""
    return "\n".join(
        [
            "Safety-violation probability vs exploit reliability "
            f"(budget={result.metrics['budget']}, "
            f"{result.params['population_size']} replicas, "
            f"{result.params['trials']} trials)",
            result.tables[0].render(),
            "",
            "violation probability grows with exploit reliability: "
            f"{result.metrics['monotone_increasing']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="campaign_reliability",
    title="Batched campaigns: violation probability vs exploit reliability",
    build=build_payload,
    render=render_result,
    params_type=CampaignReliabilityParams,
    tags=("extension", "campaign"),
)
