"""Example 1: Bitcoin's best-case diversity vs a small BFT deployment.

Example 1 of the paper compares the best-case entropy of the Bitcoin mining
landscape (17 pools holding 99.13% of hash power, residual spread over up to
1000 miners) against a classic BFT deployment of just 8 replicas with unique
configurations (entropy exactly 3 bits), concluding that the oligopoly keeps
Bitcoin's effective diversity *below* that of the 8-replica system.

``run_example1`` reproduces the comparison and also reports the effective
number of configurations (the Hill number) and the minimum number of
equal-weight configurations Bitcoin would need to match various BFT sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.report import Table
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import ExperimentError
from repro.core.optimality import minimum_kappa_for_entropy
from repro.datasets.bitcoin_pools import figure1_distribution
from repro.experiments.figure1 import run_figure1
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class Example1Result:
    """The Example 1 comparison.

    Attributes:
        bitcoin_best_entropy_bits: the maximum best-case Bitcoin entropy over
            the full Figure 1 sweep (x = 1..1000).
        bitcoin_entropy_at_x101: entropy at the caption's example point
            (x = 101, i.e. 118 miners).
        bft8_entropy_bits: entropy of 8 unique-configuration replicas (3 bits).
        bitcoin_below_bft8: whether Bitcoin stays below the 8-replica system.
        effective_configurations: Hill-number equivalent of the Bitcoin
            distribution at its best sweep point.
        equivalent_bft_size: smallest uniform BFT deployment matching
            Bitcoin's best-case entropy.
    """

    bitcoin_best_entropy_bits: float
    bitcoin_entropy_at_x101: float
    bft8_entropy_bits: float
    bitcoin_below_bft8: bool
    effective_configurations: float
    equivalent_bft_size: int


def bft_uniform_entropy(replicas: int) -> float:
    """Entropy (bits) of a BFT system with one unique configuration per replica."""
    if replicas <= 0:
        raise ExperimentError(f"replica count must be positive, got {replicas}")
    return ConfigurationDistribution.uniform_labels(replicas).entropy()


def run_example1(*, max_residual_miners: int = 1000) -> Example1Result:
    """Reproduce the Example 1 comparison."""
    figure1 = run_figure1(max_residual_miners=max_residual_miners)
    best = figure1.max_entropy_bits
    best_distribution = figure1_distribution(max_residual_miners)
    at_101 = (
        figure1.entropy_at(101)
        if max_residual_miners >= 101
        else figure1.points[-1].entropy_bits
    )
    bft8 = bft_uniform_entropy(8)
    return Example1Result(
        bitcoin_best_entropy_bits=best,
        bitcoin_entropy_at_x101=at_101,
        bft8_entropy_bits=bft8,
        bitcoin_below_bft8=best < bft8,
        effective_configurations=best_distribution.effective_configurations(),
        equivalent_bft_size=minimum_kappa_for_entropy(best),
    )


def comparison_table(result: Example1Result) -> Table:
    """Example 1 as a printable table."""
    table = Table(headers=("quantity", "value"))
    table.add_row("Bitcoin best-case entropy (max over x=1..1000)", result.bitcoin_best_entropy_bits)
    table.add_row("Bitcoin best-case entropy at x=101 (118 miners)", result.bitcoin_entropy_at_x101)
    table.add_row("8-replica unique-configuration BFT entropy", result.bft8_entropy_bits)
    table.add_row("Bitcoin stays below the 8-replica BFT system", result.bitcoin_below_bft8)
    table.add_row("effective number of configurations (Hill, q=1)", result.effective_configurations)
    table.add_row("equal-weight configurations needed to match", result.equivalent_bft_size)
    return table


@dataclass(frozen=True)
class Example1Params:
    """Orchestrator parameters for the Example 1 comparison."""

    max_residual_miners: int = 1000


def build_payload(params: Example1Params = None) -> ResultPayload:
    """Run Example 1 and pack the comparison into a structured payload."""
    params = params or Example1Params()
    result = run_example1(max_residual_miners=params.max_residual_miners)
    table = comparison_table(result)
    table.title = "comparison"
    return ResultPayload(
        tables=(table,),
        metrics={
            "bitcoin_best_entropy_bits": result.bitcoin_best_entropy_bits,
            "bitcoin_entropy_at_x101": result.bitcoin_entropy_at_x101,
            "bft8_entropy_bits": result.bft8_entropy_bits,
            "bitcoin_below_bft8": result.bitcoin_below_bft8,
            "effective_configurations": result.effective_configurations,
            "equivalent_bft_size": result.equivalent_bft_size,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic Example 1 stdout report."""
    return "\n".join(
        [
            "Example 1 -- Bitcoin best-case diversity vs an 8-replica BFT system",
            result.tables[0].render(),
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="example1",
    title="Example 1: Bitcoin best-case diversity vs an 8-replica BFT system",
    build=build_payload,
    render=render_result,
    params_type=Example1Params,
    tags=("paper", "example"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Reproduce Example 1 and print the comparison."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
