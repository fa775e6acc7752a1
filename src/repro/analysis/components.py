"""Component-level diversity decomposition.

Section III-A discusses diversity slot by slot (trusted hardware, operating
system, consensus client, wallet, crypto library).  Whole-configuration
entropy hides *where* the monoculture sits; this module decomposes it:

- :func:`component_census` — the voting-power distribution over the choices
  of one component kind;
- :func:`component_entropy_profile` — per-kind entropy, largest share and
  whether a single fault in the dominant choice of that kind violates a
  protocol tolerance (the "weakest slot" view);
- :func:`weakest_component` — the slot whose dominant choice concentrates the
  most voting power, i.e. the cheapest single target for an attacker;
- :func:`exposure_by_component` — voting power exposed per concrete component,
  the raw input for prioritizing diversification or patching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.configuration import ComponentKind, SoftwareComponent
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import AnalysisError
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction

#: Census key used for replicas that do not populate a given component kind.
ABSENT = "(absent)"


@dataclass(frozen=True)
class ComponentKindProfile:
    """Diversity summary of one component kind.

    Attributes:
        kind: the component slot.
        entropy_bits: Shannon entropy of the voting-power distribution over
            the slot's concrete choices (absent counts as its own choice).
        distinct_choices: number of concrete choices in use.
        dominant_component: identifier of the most popular choice.
        dominant_share: voting-power fraction running the dominant choice.
        single_fault_violates: whether one fault in the dominant choice
            compromises at least the protocol tolerance.
    """

    kind: ComponentKind
    entropy_bits: float
    distinct_choices: int
    dominant_component: str
    dominant_share: float
    single_fault_violates: bool


def _weighted_bincount(
    labels: Sequence[Hashable], weights: Sequence[float]
) -> Dict[Hashable, float]:
    """Sum ``weights`` grouped by label, in first-appearance order of the labels."""
    accumulated: Dict[Hashable, float] = {}
    for label, weight in zip(labels, weights):
        accumulated[label] = accumulated.get(label, 0.0) + float(weight)
    return accumulated


def component_census(
    population: ReplicaPopulation,
    kind: ComponentKind,
    *,
    weight_by_power: bool = True,
) -> ConfigurationDistribution:
    """Voting-power (or replica-count) distribution over one component kind.

    Choices appear in the order replicas first use them.
    """
    if len(population) == 0:
        raise AnalysisError("cannot analyse an empty population")
    labels: List[str] = []
    weights: List[float] = []
    for replica in population:
        component = replica.configuration.component(kind)
        labels.append(component.identifier if component is not None else ABSENT)
        weights.append(replica.power if weight_by_power else 1.0)
    return ConfigurationDistribution(_weighted_bincount(labels, weights))


def component_entropy_profile(
    population: ReplicaPopulation,
    *,
    family: ProtocolFamily = ProtocolFamily.BFT,
    weight_by_power: bool = True,
) -> Tuple[ComponentKindProfile, ...]:
    """Per-kind diversity profile across every kind present in the population."""
    if len(population) == 0:
        raise AnalysisError("cannot analyse an empty population")
    kinds = sorted(
        {
            kind
            for replica in population
            for kind in replica.configuration.kinds()
        },
        key=lambda kind: kind.value,
    )
    tolerance = tolerated_fault_fraction(family)
    profiles = []
    for kind in kinds:
        census = component_census(population, kind, weight_by_power=weight_by_power)
        dominant_key, dominant_share = census.largest(1)[0]
        profiles.append(
            ComponentKindProfile(
                kind=kind,
                entropy_bits=census.entropy(),
                distinct_choices=census.support_size(),
                dominant_component=str(dominant_key),
                dominant_share=dominant_share,
                single_fault_violates=(
                    dominant_key != ABSENT and dominant_share >= tolerance
                ),
            )
        )
    return tuple(profiles)


def weakest_component(
    population: ReplicaPopulation,
    *,
    family: ProtocolFamily = ProtocolFamily.BFT,
) -> ComponentKindProfile:
    """The slot whose dominant choice concentrates the most voting power."""
    return _weakest_of(component_entropy_profile(population, family=family))


def _weakest_of(profiles: Sequence[ComponentKindProfile]) -> ComponentKindProfile:
    """:func:`weakest_component`'s pick among already computed profiles."""
    concrete = [profile for profile in profiles if profile.dominant_component != ABSENT]
    candidates = concrete or list(profiles)
    return max(candidates, key=lambda profile: profile.dominant_share)


def exposure_by_component(
    population: ReplicaPopulation,
    *,
    kind: Optional[ComponentKind] = None,
) -> Dict[str, float]:
    """Voting power exposed per concrete component identifier.

    Args:
        population: the replica population.
        kind: restrict the analysis to one component kind (``None`` = all).

    Returns:
        Mapping component identifier -> absolute exposed voting power, sorted
        by decreasing exposure.
    """
    if len(population) == 0:
        raise AnalysisError("cannot analyse an empty population")
    labels: List[str] = []
    weights: List[float] = []
    for replica in population:
        for component in replica.configuration:
            if kind is not None and component.kind is not kind:
                continue
            labels.append(component.identifier)
            weights.append(replica.power)
    exposure = _weighted_bincount(labels, weights)
    return dict(sorted(exposure.items(), key=lambda item: (-item[1], item[0])))


def diversification_priority(
    population: ReplicaPopulation,
    *,
    family: ProtocolFamily = ProtocolFamily.BFT,
) -> Tuple[Tuple[str, float], ...]:
    """Components whose exposure exceeds the protocol tolerance, largest first.

    These are the concrete components an operator community would have to
    diversify (or a Lazarus-style manager would migrate away from) before any
    single vulnerability stops being fatal.
    """
    tolerance = tolerated_fault_fraction(family)
    total = population.total_power()
    if total <= 0:
        raise AnalysisError("the population has no voting power")
    ranked = exposure_by_component(population)
    return tuple(
        (identifier, power / total)
        for identifier, power in ranked.items()
        if power / total >= tolerance
    )
