"""Proposition 1: abundance increases lower entropy unless proportional.

The experiment sweeps κ-optimal systems of different sizes and applies three
kinds of abundance increase to each:

- *proportional* — every configuration gains the same factor (relative
  abundance preserved): entropy must stay identical;
- *single-configuration* — one configuration gains extra individuals:
  entropy must strictly decrease;
- *skewed* — a random-but-deterministic uneven increment: entropy must not
  increase.

Proposition 1 holds over the sweep when every case behaves accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.report import Table
from repro.core.abundance import AbundanceVector
from repro.core.exceptions import ExperimentError
from repro.core.propositions import Proposition1Result, check_proposition_1
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class Proposition1Case:
    """One (κ, scenario) cell of the Proposition 1 sweep."""

    kappa: int
    scenario: str
    result: Proposition1Result


@dataclass(frozen=True)
class Proposition1Sweep:
    """All cases of the Proposition 1 experiment."""

    cases: Tuple[Proposition1Case, ...]
    holds: bool


def _baseline(kappa: int, omega: float) -> AbundanceVector:
    return AbundanceVector.uniform([f"config-{i}" for i in range(kappa)], abundance=omega)


def run_proposition1(
    *,
    kappas: Sequence[int] = (2, 4, 8, 16, 32, 64),
    omega: float = 4.0,
) -> Proposition1Sweep:
    """Run the Proposition 1 sweep.

    Args:
        kappas: κ values (number of configurations) to test.
        omega: the baseline per-configuration abundance.
    """
    if not kappas:
        raise ExperimentError("at least one kappa value is required")
    if omega <= 0:
        raise ExperimentError(f"omega must be positive, got {omega}")
    cases = []
    for kappa in kappas:
        if kappa < 2:
            raise ExperimentError("kappa must be at least 2 for a meaningful comparison")
        baseline = _baseline(kappa, omega)
        keys = list(baseline.configurations())

        proportional = {key: omega for key in keys}  # doubles every abundance
        single = {keys[0]: omega * kappa}  # one configuration becomes dominant
        skewed = {key: omega * (index % 3) for index, key in enumerate(keys)}

        cases.append(
            Proposition1Case(
                kappa=kappa,
                scenario="proportional",
                result=check_proposition_1(baseline, proportional),
            )
        )
        cases.append(
            Proposition1Case(
                kappa=kappa,
                scenario="single-configuration",
                result=check_proposition_1(baseline, single),
            )
        )
        cases.append(
            Proposition1Case(
                kappa=kappa,
                scenario="skewed",
                result=check_proposition_1(baseline, skewed),
            )
        )
    return Proposition1Sweep(
        cases=tuple(cases), holds=all(case.result.holds for case in cases)
    )


def proposition1_table(sweep: Proposition1Sweep) -> Table:
    """The sweep as a printable table."""
    table = Table(
        headers=(
            "kappa",
            "scenario",
            "entropy before",
            "entropy after",
            "relative abundance preserved",
            "holds",
        )
    )
    for case in sweep.cases:
        table.add_row(
            case.kappa,
            case.scenario,
            case.result.entropy_before,
            case.result.entropy_after,
            case.result.relative_abundance_preserved,
            case.result.holds,
        )
    return table


@dataclass(frozen=True)
class Proposition1Params:
    """Orchestrator parameters for the Proposition 1 sweep."""

    kappas: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    omega: float = 4.0


def build_payload(params: Proposition1Params = None) -> ResultPayload:
    """Run the Proposition 1 sweep as a structured payload."""
    params = params or Proposition1Params()
    sweep = run_proposition1(kappas=tuple(params.kappas), omega=params.omega)
    table = proposition1_table(sweep)
    table.title = "sweep"
    return ResultPayload(
        tables=(table,),
        metrics={"holds": sweep.holds, "cases": len(sweep.cases)},
    )


def render_result(result: ExperimentResult) -> str:
    """The classic Proposition 1 stdout report."""
    return "\n".join(
        [
            "Proposition 1 -- abundance increases vs entropy on κ-optimal systems",
            result.tables[0].render(),
            "",
            f"Proposition 1 holds over the sweep: {result.metrics['holds']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="proposition1",
    title="Proposition 1: abundance increases vs entropy on κ-optimal systems",
    build=build_payload,
    render=render_result,
    params_type=Proposition1Params,
    tags=("paper", "proposition"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the Proposition 1 experiment and print the table."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
