"""Which component slot is the weakest link? (Section III-A, quantified).

The whole-configuration entropy of Figure 1 does not say *where* a
permissionless population's monoculture sits.  This experiment decomposes the
census of two synthetic ecosystems (the moderately diverse default and the
monoculture-leaning skewed one) by component kind, reporting for each slot the
entropy, the dominant choice's voting-power share and whether one fault in
that choice already violates the BFT tolerance.  It also lists the concrete
components whose exposure exceeds the tolerance — the diversification
priority list a Lazarus-style manager or an operator community would work
through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.components import (
    ComponentKindProfile,
    _weakest_of,
    component_entropy_profile,
    diversification_priority,
)
from repro.analysis.report import Table
from repro.core.exceptions import ExperimentError
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily
from repro.datasets.software_ecosystem import (
    SyntheticEcosystem,
    default_ecosystem,
    skewed_ecosystem,
)
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
    execute_spec,
)


@dataclass(frozen=True)
class EcosystemExposure:
    """Per-kind profiles and the priority list for one ecosystem."""

    label: str
    population_entropy_bits: float
    profiles: Tuple[ComponentKindProfile, ...]
    weakest_kind: str
    weakest_share: float
    priority_components: Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class ComponentExposureResult:
    """The experiment output for every analysed ecosystem."""

    population_size: int
    ecosystems: Tuple[EcosystemExposure, ...]
    skewed_has_critical_slot: bool
    diverse_has_no_critical_slot: bool


def _analyse(
    label: str, ecosystem: SyntheticEcosystem, population_size: int, seed: int
) -> EcosystemExposure:
    population: ReplicaPopulation = ecosystem.sample_population(population_size, seed=seed)
    profiles = component_entropy_profile(population, family=ProtocolFamily.BFT)
    weakest = _weakest_of(profiles)
    return EcosystemExposure(
        label=label,
        population_entropy_bits=population.entropy(),
        profiles=profiles,
        weakest_kind=weakest.kind.value,
        weakest_share=weakest.dominant_share,
        priority_components=diversification_priority(population, family=ProtocolFamily.BFT),
    )


def run_component_exposure(
    *,
    population_size: int = 400,
    seed: int = 51,
    ecosystems: Dict[str, SyntheticEcosystem] = None,
) -> ComponentExposureResult:
    """Run the component-exposure decomposition."""
    if population_size < 20:
        raise ExperimentError("the population should have at least 20 replicas")
    if ecosystems is None:
        ecosystems = {
            "default (moderately diverse)": default_ecosystem(),
            "skewed (monoculture-leaning)": skewed_ecosystem(),
        }
    if not ecosystems:
        raise ExperimentError("at least one ecosystem is required")
    analysed = tuple(
        _analyse(label, ecosystem, population_size, seed)
        for label, ecosystem in ecosystems.items()
    )
    skewed = [entry for entry in analysed if "skewed" in entry.label]
    diverse = [entry for entry in analysed if "default" in entry.label]
    return ComponentExposureResult(
        population_size=population_size,
        ecosystems=analysed,
        skewed_has_critical_slot=all(
            any(profile.single_fault_violates for profile in entry.profiles)
            for entry in skewed
        )
        if skewed
        else False,
        diverse_has_no_critical_slot=all(
            not any(profile.single_fault_violates for profile in entry.profiles)
            for entry in diverse
        )
        if diverse
        else False,
    )


def exposure_table(result: ComponentExposureResult) -> Table:
    """Per-kind profiles for every ecosystem as one printable table."""
    table = Table(
        headers=(
            "ecosystem",
            "component kind",
            "entropy (bits)",
            "choices",
            "dominant share",
            "1 fault breaks BFT",
        )
    )
    for entry in result.ecosystems:
        for profile in entry.profiles:
            table.add_row(
                entry.label,
                profile.kind.value,
                profile.entropy_bits,
                profile.distinct_choices,
                profile.dominant_share,
                profile.single_fault_violates,
            )
    return table


@dataclass(frozen=True)
class ComponentExposureParams:
    """Orchestrator parameters for the component-exposure decomposition."""

    population_size: int = 400
    seed: int = 51


def build_payload(params: ComponentExposureParams = None) -> ResultPayload:
    """Run the decomposition as a structured payload (default ecosystems)."""
    params = params or ComponentExposureParams()
    result = run_component_exposure(
        population_size=params.population_size, seed=params.seed
    )
    table = exposure_table(result)
    table.title = "per_kind_profiles"
    return ResultPayload(
        tables=(table,),
        metrics={
            "skewed_has_critical_slot": result.skewed_has_critical_slot,
            "diverse_has_no_critical_slot": result.diverse_has_no_critical_slot,
            "ecosystems": [
                {
                    "label": entry.label,
                    "population_entropy_bits": entry.population_entropy_bits,
                    "weakest_kind": entry.weakest_kind,
                    "weakest_share": entry.weakest_share,
                    "priority_component_count": len(entry.priority_components),
                }
                for entry in result.ecosystems
            ],
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic component-exposure stdout report."""
    lines = [
        f"Component-level exposure over {result.params['population_size']}-replica populations",
        result.tables[0].render(),
        "",
    ]
    for entry in result.metrics["ecosystems"]:
        lines.append(
            f"{entry['label']}: population entropy "
            f"{entry['population_entropy_bits']:.3f} bits; "
            f"weakest slot = {entry['weakest_kind']} "
            f"(dominant choice holds {entry['weakest_share']:.0%} of power); "
            f"{entry['priority_component_count']} components above the BFT tolerance"
        )
    return "\n".join(lines)


SPEC = ExperimentSpec(
    experiment_id="component_exposure",
    title="Component-level exposure: which component slot is the weakest link?",
    build=build_payload,
    render=render_result,
    params_type=ComponentExposureParams,
    tags=("extension", "components"),
)


def main(argv: Sequence[str] = ()) -> None:
    """Run the component-exposure experiment and print the tables."""
    print(render_result(execute_spec(SPEC)))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
