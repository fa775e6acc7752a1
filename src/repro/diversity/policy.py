"""Voting-weight policies for permissionless systems.

The paper's conclusion sketches a concrete mitigation: run two classes of
replicas — those that support configuration attestation and those that do not
— "potentially with different voting right/weight".  The
:class:`TwoClassWeightPolicy` implements that proposal: it rescales voting
power by an attested/non-attested weight ratio and reports the effect on the
configuration-census entropy and on the power an attacker can grab through
the unattested (unknown-configuration, assumed-worst-case) class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import AnalysisError
from repro.core.population import ReplicaPopulation


@dataclass(frozen=True)
class WeightedCensus:
    """Result of applying a weight policy to a population.

    Attributes:
        entropy: census entropy (bits) of the effective-power distribution.
        attested_power_fraction: fraction of effective power held by attested
            replicas after reweighting.
        unattested_worst_case_fraction: effective-power fraction an attacker
            controls if the *entire* unattested class shares one exploitable
            fault (the conservative reading of "unknown configuration").
        effective_power: effective (reweighted) power per replica.
        census: the effective-power distribution over fault domains the
            entropy is taken of: each attested configuration, plus one
            ``"unattested-unknown"`` domain pooling the unattested power.
    """

    entropy: float
    attested_power_fraction: float
    unattested_worst_case_fraction: float
    effective_power: Tuple[Tuple[str, float], ...]
    census: ConfigurationDistribution


@dataclass(frozen=True)
class TwoClassWeightPolicy:
    """Voting weights for attested vs non-attested replicas.

    Attributes:
        attested_weight: multiplier applied to attested replicas' power.
        unattested_weight: multiplier applied to non-attested replicas' power.
    """

    attested_weight: float = 1.0
    unattested_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.attested_weight < 0 or self.unattested_weight < 0:
            raise AnalysisError("voting weights must be non-negative")
        if self.attested_weight == 0 and self.unattested_weight == 0:
            raise AnalysisError("at least one class must have positive weight")

    def effective_power(self, population: ReplicaPopulation) -> Dict[str, float]:
        """Reweighted absolute power per replica."""
        result: Dict[str, float] = {}
        for replica in population:
            factor = self.attested_weight if replica.attested else self.unattested_weight
            result[replica.replica_id] = replica.power * factor
        return result

    def apply(self, population: ReplicaPopulation) -> WeightedCensus:
        """Apply the policy and summarize the diversity / exposure effect."""
        power = self.effective_power(population)
        total = sum(power.values())
        if total <= 0:
            raise AnalysisError("the policy removed all effective voting power")
        attested_power = sum(
            power[replica.replica_id] for replica in population if replica.attested
        )
        unattested_power = total - attested_power

        # Census over configurations: attested replicas contribute their
        # (attested) configuration; unattested replicas are lumped into a
        # single worst-case "unknown" bucket because nothing verifiable
        # distinguishes their fault domains.
        weights: Dict[object, float] = {}
        for replica in population:
            effective = power[replica.replica_id]
            if effective <= 0:
                continue
            key: object = replica.configuration if replica.attested else "unattested-unknown"
            weights[key] = weights.get(key, 0.0) + effective
        census = ConfigurationDistribution(weights)

        return WeightedCensus(
            entropy=census.entropy(),
            attested_power_fraction=attested_power / total,
            unattested_worst_case_fraction=unattested_power / total,
            effective_power=tuple(sorted(power.items())),
            census=census,
        )
