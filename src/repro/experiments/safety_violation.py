"""Safety-violation probability as a function of configuration diversity.

This experiment quantifies the Section II-C condition under uncertainty about
which components are vulnerable: for a family of configuration censuses with
increasing entropy — from a monoculture through the Bitcoin oligopoly to a
κ-optimal uniform distribution — it estimates (by Monte Carlo) the probability
that an attacker exploiting a bounded number of shared vulnerabilities
compromises more voting power than the protocol tolerates.

The expected shape: the violation probability is near 1 for low-entropy
censuses and falls sharply as the census approaches κ-optimality, for both
the BFT (1/3) and Nakamoto / hybrid (1/2) tolerance levels.

The estimator routes through the campaign engine's census-mode seam
(:func:`repro.faults.engine.run_census_trials`), whose trials read the same
counter stream as the campaign sweeps, so every number — and the one golden
snapshot — is the same on every backend.  Both tolerances of a census are
judged on one draw at the census's seed: one kernel call per census.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.monte_carlo import estimate_violation_probabilities
from repro.analysis.sweep import mapping_sweep
from repro.backend import get_backend
from repro.backend.selection import BackendLike
from repro.analysis.report import Table
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import ExperimentError
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction
from repro.datasets.bitcoin_pools import figure1_distribution
from repro.datasets.generators import oligopoly_distribution, uniform_distribution, zipf_distribution
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class SafetyViolationRow:
    """One census's violation probabilities."""

    label: str
    entropy_bits: float
    kappa: int
    violation_probability_bft: float
    violation_probability_majority: float


@dataclass(frozen=True)
class SafetyViolationResult:
    """All censuses, ordered by increasing entropy."""

    rows: Tuple[SafetyViolationRow, ...]
    vulnerability_probability: float
    exploit_budget: int
    monotone_decreasing: bool


#: The BFT (1/3) and majority (1/2) tolerances, judged on one draw per census.
TOLERANCES = (
    tolerated_fault_fraction(ProtocolFamily.BFT),
    tolerated_fault_fraction(ProtocolFamily.NAKAMOTO),
)


def default_censuses() -> Dict[str, ConfigurationDistribution]:
    """The census family used by the experiment (roughly increasing entropy)."""
    return {
        "monoculture (1 config)": ConfigurationDistribution({"only-config": 1.0}),
        "duopoly 70/30": ConfigurationDistribution({"a": 0.7, "b": 0.3}),
        "zipf-16 (s=1.2)": zipf_distribution(16, 1.2),
        "bitcoin pools (x=101)": figure1_distribution(101),
        "oligopoly 10@96% + 500": oligopoly_distribution(10, 0.96, 500),
        "uniform-16": uniform_distribution(16),
        "uniform-64": uniform_distribution(64),
        "uniform-256": uniform_distribution(256),
    }


def run_safety_violation(
    *,
    censuses: Dict[str, ConfigurationDistribution] = None,
    vulnerability_probability: float = 0.25,
    exploit_budget: int = 1,
    trials: int = 2000,
    seed: int = 7,
    backend: BackendLike = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> SafetyViolationResult:
    """Estimate violation probabilities across the census family.

    Per-census seeds are fixed (``seed + index``), so ``parallel=True`` fans
    the censuses out over a thread pool without changing any number in the
    result.
    """
    if censuses is None:
        censuses = default_censuses()
    if not censuses:
        raise ExperimentError("at least one census is required")
    resolved = get_backend(backend)

    def estimate_row(index: int, label: str, census: ConfigurationDistribution) -> SafetyViolationRow:
        bft, majority = estimate_violation_probabilities(
            census,
            tolerated_fractions=TOLERANCES,
            vulnerability_probability=vulnerability_probability,
            exploit_budget=exploit_budget,
            trials=trials,
            seed=seed + index,
            backend=resolved,
        )
        return SafetyViolationRow(
            label=label,
            entropy_bits=census.entropy(),
            kappa=census.support_size(),
            violation_probability_bft=bft.violation_probability,
            violation_probability_majority=majority.violation_probability,
        )

    rows = mapping_sweep(
        censuses, estimate_row, parallel=parallel, max_workers=max_workers
    )
    rows.sort(key=lambda row: row.entropy_bits)
    bft_series = [row.violation_probability_bft for row in rows]
    monotone = all(b <= a + 0.05 for a, b in zip(bft_series, bft_series[1:]))
    return SafetyViolationResult(
        rows=tuple(rows),
        vulnerability_probability=vulnerability_probability,
        exploit_budget=exploit_budget,
        monotone_decreasing=monotone,
    )


def safety_violation_table(result: SafetyViolationResult) -> Table:
    """The experiment as a printable table."""
    table = Table(
        headers=(
            "census",
            "entropy (bits)",
            "kappa",
            "P[violation] BFT (1/3)",
            "P[violation] majority (1/2)",
        )
    )
    for row in result.rows:
        table.add_row(
            row.label,
            row.entropy_bits,
            row.kappa,
            row.violation_probability_bft,
            row.violation_probability_majority,
        )
    return table


@dataclass(frozen=True)
class SafetyViolationParams:
    """Orchestrator parameters for the safety-violation census sweep."""

    vulnerability_probability: float = 0.25
    exploit_budget: int = 1
    trials: int = 2000
    seed: int = 7


def build_payload(params: SafetyViolationParams = None) -> ResultPayload:
    """Run the census sweep as a structured payload (default census family)."""
    params = params or SafetyViolationParams()
    result = run_safety_violation(
        vulnerability_probability=params.vulnerability_probability,
        exploit_budget=params.exploit_budget,
        trials=params.trials,
        seed=params.seed,
    )
    table = safety_violation_table(result)
    table.title = "census_sweep"
    return ResultPayload(
        tables=(table,),
        metrics={
            "monotone_decreasing": result.monotone_decreasing,
            "censuses": len(result.rows),
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic safety-violation stdout report."""
    return "\n".join(
        [
            "Safety-violation probability vs census entropy "
            f"(p_vuln={result.params['vulnerability_probability']}, "
            f"budget={result.params['exploit_budget']})",
            result.tables[0].render(),
            "",
            "violation probability decreases with entropy: "
            f"{result.metrics['monotone_decreasing']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="safety_violation",
    title="Safety-violation probability vs census entropy (Monte Carlo)",
    build=build_payload,
    render=render_result,
    params_type=SafetyViolationParams,
    tags=("analysis", "monte-carlo"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the safety-violation experiment and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
