"""Proposition 3: configuration abundance buys resilience at a message cost.

The experiment fixes a κ-optimal configuration distribution and sweeps the
configuration abundance ω.  For each ω it reports:

- the largest voting-power fraction a coalition of rational operators can
  control (which shrinks with ω, because each operator only runs 1/ω of its
  configuration's power);
- the largest fraction a single shared vulnerability compromises (which does
  *not* change with ω — the proposition's caveat that abundance is no defence
  against exploit-based faults);
- the per-round message complexity (which grows with ω — the trade-off the
  paper highlights), for both quadratic (PBFT-like) and linear
  (HotStuff-like) communication patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.report import Table
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import ExperimentError
from repro.core.propositions import (
    Proposition3Result,
    check_proposition_3,
    proposition_3_holds,
)
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class Proposition3Sweep:
    """The ω sweep plus verdicts and the linear-message comparison."""

    kappa: int
    colluding_operators: int
    quadratic_results: Tuple[Proposition3Result, ...]
    linear_results: Tuple[Proposition3Result, ...]
    holds: bool


def run_proposition3(
    *,
    kappa: int = 8,
    abundances: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    colluding_operators: int = 2,
) -> Proposition3Sweep:
    """Run the Proposition 3 abundance sweep.

    Args:
        kappa: number of distinct configurations (κ-optimal distribution).
        abundances: ω values to sweep.
        colluding_operators: size of the rational-operator coalition.
    """
    if kappa < 2:
        raise ExperimentError("kappa must be at least 2")
    if not abundances:
        raise ExperimentError("at least one abundance value is required")
    if colluding_operators < 1:
        raise ExperimentError("the coalition needs at least one operator")
    distribution = ConfigurationDistribution.uniform_labels(kappa)
    quadratic = check_proposition_3(
        distribution,
        list(abundances),
        colluding_operators=colluding_operators,
        message_model="quadratic",
    )
    linear = check_proposition_3(
        distribution,
        list(abundances),
        colluding_operators=colluding_operators,
        message_model="linear",
    )
    return Proposition3Sweep(
        kappa=kappa,
        colluding_operators=colluding_operators,
        quadratic_results=tuple(quadratic),
        linear_results=tuple(linear),
        holds=proposition_3_holds(quadratic) and proposition_3_holds(linear),
    )


def proposition3_table(sweep: Proposition3Sweep) -> Table:
    """The ω sweep as a printable table."""
    table = Table(
        headers=(
            "abundance (omega)",
            "replicas",
            "rational takeover",
            "exploit takeover",
            "messages (quadratic)",
            "messages (linear)",
        )
    )
    for quadratic, linear in zip(sweep.quadratic_results, sweep.linear_results):
        table.add_row(
            quadratic.abundance,
            quadratic.replica_count,
            quadratic.max_rational_takeover,
            quadratic.max_exploit_takeover,
            quadratic.message_complexity,
            linear.message_complexity,
        )
    return table


@dataclass(frozen=True)
class Proposition3Params:
    """Orchestrator parameters for the Proposition 3 abundance sweep."""

    kappa: int = 8
    abundances: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    colluding_operators: int = 2


def build_payload(params: Proposition3Params = None) -> ResultPayload:
    """Run the Proposition 3 sweep as a structured payload."""
    params = params or Proposition3Params()
    sweep = run_proposition3(
        kappa=params.kappa,
        abundances=tuple(params.abundances),
        colluding_operators=params.colluding_operators,
    )
    table = proposition3_table(sweep)
    table.title = "abundance_sweep"
    return ResultPayload(
        tables=(table,),
        metrics={"holds": sweep.holds},
    )


def render_result(result: ExperimentResult) -> str:
    """The classic Proposition 3 stdout report."""
    return "\n".join(
        [
            "Proposition 3 -- configuration abundance vs rational-operator resilience "
            f"(kappa={result.params['kappa']}, coalition={result.params['colluding_operators']})",
            result.tables[0].render(),
            "",
            f"Proposition 3 trade-off observed: {result.metrics['holds']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="proposition3",
    title="Proposition 3: configuration abundance vs rational-operator resilience",
    build=build_payload,
    render=render_result,
    params_type=Proposition3Params,
    tags=("paper", "proposition"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the Proposition 3 experiment and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
