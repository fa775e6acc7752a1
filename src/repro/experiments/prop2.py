"""Proposition 2: more unique-configuration replicas do not mean more resilience.

The experiment grows systems where every replica has a unique configuration
under two power-assignment regimes:

- *uniform growth* — every replica holds the same power: the relative
  abundances stay identical and entropy grows as ``log2 n`` (the escape
  clause of the proposition);
- *oligopoly growth* — the power distribution keeps the Bitcoin-style
  oligopoly shape (new replicas only share the small residual): entropy
  saturates well below ``log2 n``, so adding replicas buys almost nothing.

Proposition 2 holds when every oligopoly-growth step either fails to improve
entropy or improves it less than the uniform bound, and every uniform-growth
step is explained by identical relative abundances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.report import Table
from repro.core.exceptions import ExperimentError
from repro.core.propositions import Proposition2Result, check_proposition_2
from repro.datasets.bitcoin_pools import figure1_distribution
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class Proposition2Step:
    """One growth step of the Proposition 2 experiment."""

    regime: str
    replicas_before: int
    replicas_after: int
    result: Proposition2Result


@dataclass(frozen=True)
class Proposition2Sweep:
    """All growth steps plus the overall verdict."""

    steps: Tuple[Proposition2Step, ...]
    holds: bool
    oligopoly_entropy_ceiling: float
    uniform_final_entropy: float


def run_proposition2(
    *,
    sizes: Sequence[int] = (18, 67, 117, 517, 1017),
) -> Proposition2Sweep:
    """Run the Proposition 2 growth comparison.

    Args:
        sizes: total system sizes to step through.  For the oligopoly regime
            the size is 17 pools + residual miners; the uniform regime uses
            the same totals with equal power per replica.
    """
    if len(sizes) < 2:
        raise ExperimentError("at least two system sizes are required")
    if any(size <= 17 for size in sizes):
        raise ExperimentError("sizes must exceed the 17 fixed pools")
    steps = []
    oligopoly_entropies = []
    uniform_entropies = []
    for before, after in zip(sizes, sizes[1:]):
        # Oligopoly regime: Bitcoin pools plus uniformly-split residual.
        dist_before = figure1_distribution(before - 17)
        dist_after = figure1_distribution(after - 17)
        oligopoly = check_proposition_2(
            dist_before.probabilities(), dist_after.probabilities()
        )
        oligopoly_entropies.extend([oligopoly.entropy_before, oligopoly.entropy_after])
        steps.append(
            Proposition2Step(
                regime="oligopoly",
                replicas_before=before,
                replicas_after=after,
                result=oligopoly,
            )
        )
        # Uniform regime: same sizes, equal power per replica.
        uniform = check_proposition_2(
            [1.0 / before] * before, [1.0 / after] * after
        )
        uniform_entropies.extend([uniform.entropy_before, uniform.entropy_after])
        steps.append(
            Proposition2Step(
                regime="uniform",
                replicas_before=before,
                replicas_after=after,
                result=uniform,
            )
        )
    return Proposition2Sweep(
        steps=tuple(steps),
        holds=all(step.result.holds for step in steps),
        oligopoly_entropy_ceiling=max(oligopoly_entropies),
        uniform_final_entropy=max(uniform_entropies),
    )


def proposition2_table(sweep: Proposition2Sweep) -> Table:
    """The sweep as a printable table."""
    table = Table(
        headers=(
            "regime",
            "replicas before",
            "replicas after",
            "entropy before",
            "entropy after",
            "improved",
            "uniform after",
            "holds",
        )
    )
    for step in sweep.steps:
        table.add_row(
            step.regime,
            step.replicas_before,
            step.replicas_after,
            step.result.entropy_before,
            step.result.entropy_after,
            step.result.resilience_improved,
            step.result.relative_abundances_identical,
            step.result.holds,
        )
    return table


@dataclass(frozen=True)
class Proposition2Params:
    """Orchestrator parameters for the Proposition 2 growth comparison."""

    sizes: Tuple[int, ...] = (18, 67, 117, 517, 1017)


def build_payload(params: Proposition2Params = None) -> ResultPayload:
    """Run the Proposition 2 comparison as a structured payload."""
    params = params or Proposition2Params()
    sweep = run_proposition2(sizes=tuple(params.sizes))
    table = proposition2_table(sweep)
    table.title = "growth_steps"
    return ResultPayload(
        tables=(table,),
        metrics={
            "holds": sweep.holds,
            "oligopoly_entropy_ceiling": sweep.oligopoly_entropy_ceiling,
            "uniform_final_entropy": sweep.uniform_final_entropy,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic Proposition 2 stdout report."""
    metrics = result.metrics
    return "\n".join(
        [
            "Proposition 2 -- growing unique-configuration systems",
            result.tables[0].render(),
            "",
            f"oligopoly entropy ceiling : {metrics['oligopoly_entropy_ceiling']:.4f} bits",
            f"uniform entropy reached   : {metrics['uniform_final_entropy']:.4f} bits",
            f"Proposition 2 holds       : {metrics['holds']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="proposition2",
    title="Proposition 2: growing unique-configuration systems",
    build=build_payload,
    render=render_result,
    params_type=Proposition2Params,
    tags=("paper", "proposition"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the Proposition 2 experiment and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
