"""Figure 1: best-case entropy of Bitcoin replica diversity.

The paper's Figure 1 plots the Shannon entropy of the Bitcoin mining-power
distribution under the best-case diversity assumption (every miner has a
unique configuration), as the unknown residual 0.87% of hash power is spread
uniformly over 1 to 1000 miners.  The take-away is that the entropy stays
below 3 bits for every x — i.e. below the entropy of an 8-replica BFT system
with unique configurations — because the pool oligopoly dominates.

``run_figure1`` regenerates the series; ``python -m repro.cli run figure1``
prints it (sub-sampled) as a text table together with the 3-bit reference
line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.report import Table
from repro.core.exceptions import ExperimentError
from repro.datasets.bitcoin_pools import figure1_distribution, figure1_total_miners
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
)

#: The reference entropy of an 8-replica unique-configuration BFT system.
BFT_8_REPLICA_ENTROPY_BITS = 3.0


@dataclass(frozen=True)
class Figure1Point:
    """One point of the Figure 1 series.

    Attributes:
        residual_miners: the X-axis value (miners sharing the residual 0.87%).
        total_miners: total miners in the system (17 pools + residual miners).
        entropy_bits: Shannon entropy of the best-case configuration
            distribution, in bits.
    """

    residual_miners: int
    total_miners: int
    entropy_bits: float


@dataclass(frozen=True)
class Figure1Result:
    """The regenerated Figure 1 series plus its headline statistics."""

    points: Tuple[Figure1Point, ...]
    max_entropy_bits: float
    min_entropy_bits: float
    always_below_bft8: bool

    def entropy_at(self, residual_miners: int) -> float:
        """Entropy at a specific X value (raises when not part of the sweep).

        The x → entropy index is built once on first use and memoized on the
        instance (the frozen dataclass still has a ``__dict__``), so repeated
        lookups — Example 1 probes several caption points — are O(1) instead
        of a linear scan over the 1000-point series.
        """
        index = self.__dict__.get("_entropy_index")
        if index is None:
            index = {point.residual_miners: point.entropy_bits for point in self.points}
            object.__setattr__(self, "_entropy_index", index)
        try:
            return index[residual_miners]
        except KeyError:
            raise ExperimentError(
                f"x={residual_miners} was not part of the sweep"
            ) from None


def run_figure1(
    *,
    min_residual_miners: int = 1,
    max_residual_miners: int = 1000,
    step: int = 1,
) -> Figure1Result:
    """Regenerate the Figure 1 entropy series.

    Args:
        min_residual_miners: first X value (the paper uses 1).
        max_residual_miners: last X value (the paper uses 1000).
        step: stride through the X range (1 reproduces every paper point).
    """
    if min_residual_miners < 1:
        raise ExperimentError("the residual miner count starts at 1")
    if max_residual_miners < min_residual_miners:
        raise ExperimentError("max residual miners must be >= the minimum")
    if step < 1:
        raise ExperimentError(f"step must be positive, got {step}")
    points = []
    for x in range(min_residual_miners, max_residual_miners + 1, step):
        distribution = figure1_distribution(x)
        points.append(
            Figure1Point(
                residual_miners=x,
                total_miners=figure1_total_miners(x),
                entropy_bits=distribution.entropy(base=2.0),
            )
        )
    entropies = [point.entropy_bits for point in points]
    return Figure1Result(
        points=tuple(points),
        max_entropy_bits=max(entropies),
        min_entropy_bits=min(entropies),
        always_below_bft8=all(entropy < BFT_8_REPLICA_ENTROPY_BITS for entropy in entropies),
    )


def figure1_table(result: Figure1Result, *, sample_every: int = 100) -> Table:
    """A printable sub-sampled view of the series."""
    if sample_every < 1:
        raise ExperimentError(f"sample stride must be positive, got {sample_every}")
    table = Table(headers=("residual miners (x)", "total miners", "entropy (bits)"))
    for index, point in enumerate(result.points):
        if index % sample_every == 0 or index == len(result.points) - 1:
            table.add_row(point.residual_miners, point.total_miners, point.entropy_bits)
    return table


@dataclass(frozen=True)
class Figure1Params:
    """Orchestrator parameters for the Figure 1 sweep."""

    min_residual_miners: int = 1
    max_residual_miners: int = 1000
    step: int = 1
    sample_every: int = 100


def build_payload(params: Figure1Params) -> ResultPayload:
    """Run Figure 1 and pack the series into a structured payload."""
    result = run_figure1(
        min_residual_miners=params.min_residual_miners,
        max_residual_miners=params.max_residual_miners,
        step=params.step,
    )
    table = figure1_table(result, sample_every=params.sample_every)
    table.title = "entropy_series"
    return ResultPayload(
        tables=(table,),
        metrics={
            "max_entropy_bits": result.max_entropy_bits,
            "min_entropy_bits": result.min_entropy_bits,
            "bft8_reference_bits": BFT_8_REPLICA_ENTROPY_BITS,
            "always_below_bft8": result.always_below_bft8,
            "points": len(result.points),
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic Figure 1 stdout report, rebuilt from the structured result."""
    return "\n".join(
        [
            "Figure 1 -- best-case entropy of Bitcoin replica diversity",
            result.tables[0].render(),
            "",
            f"max entropy over the sweep : {result.metrics['max_entropy_bits']:.4f} bits",
            f"entropy of 8-replica BFT   : {result.metrics['bft8_reference_bits']:.4f} bits",
            f"always below the BFT line  : {result.metrics['always_below_bft8']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="figure1",
    title="Figure 1: best-case entropy of Bitcoin replica diversity",
    build=build_payload,
    render=render_result,
    params_type=Figure1Params,
    tags=("paper", "figure"),
)
