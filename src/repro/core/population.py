"""Replica populations: the set of participants holding voting power.

A :class:`Replica` is a participant with an id, a configuration, a voting
power and an attestation flag (whether its configuration has been discovered
via remote attestation, Section III-B).  A :class:`ReplicaPopulation` is the
evolving set of replicas in a (possibly permissionless) system; it supports
join/leave and produces the two censuses the paper's analysis
needs:

- the **power-weighted census** (relative configuration abundance) used for
  Bitcoin-like systems, and
- the **count-weighted census** (configuration abundance) used for classic
  BFT systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Tuple

from repro.core.configuration import ReplicaConfiguration, SoftwareComponent
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import PopulationError
from repro.core.power import PowerRegime


@dataclass(frozen=True)
class Replica:
    """One participant holding voting power.

    Attributes:
        replica_id: unique identifier within the population.
        configuration: the replica's attested or declared configuration.
        power: absolute voting power (replica count weight, hashrate, stake).
        attested: whether the configuration was discovered through remote
            attestation (true) or merely self-declared (false).
        metadata: free-form annotations (region, operator, pool membership).
    """

    replica_id: str
    configuration: ReplicaConfiguration
    power: float = 1.0
    attested: bool = False
    metadata: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.replica_id:
            raise PopulationError("replica id must not be empty")
        if self.power < 0:
            raise PopulationError(f"replica power must be non-negative, got {self.power}")


class ReplicaPopulation:
    """A mutable collection of replicas with census and power queries."""

    def __init__(
        self,
        replicas: Iterable[Replica] = (),
        *,
        regime: PowerRegime = PowerRegime.REPLICA_COUNT,
    ) -> None:
        self._replicas: Dict[str, Replica] = {}
        self._regime = regime
        for replica in replicas:
            self.join(replica)

    # -- membership -------------------------------------------------------------

    def join(self, replica: Replica) -> None:
        """Add a replica; the id must not already be present."""
        if replica.replica_id in self._replicas:
            raise PopulationError(f"replica {replica.replica_id!r} already joined")
        self._replicas[replica.replica_id] = replica

    def leave(self, replica_id: str) -> Replica:
        """Remove and return the replica with ``replica_id``."""
        if replica_id not in self._replicas:
            raise PopulationError(f"unknown replica {replica_id!r}")
        return self._replicas.pop(replica_id)

    def get(self, replica_id: str) -> Replica:
        """The replica with ``replica_id`` (raises when unknown)."""
        try:
            return self._replicas[replica_id]
        except KeyError:
            raise PopulationError(f"unknown replica {replica_id!r}") from None

    def replicas(self) -> Tuple[Replica, ...]:
        """All replicas, in join order."""
        return tuple(self._replicas.values())

    def replica_ids(self) -> Tuple[str, ...]:
        return tuple(self._replicas.keys())

    # -- power ------------------------------------------------------------------

    @property
    def regime(self) -> PowerRegime:
        return self._regime

    def total_power(self) -> float:
        """``n_t`` — total voting power across all replicas."""
        return sum(replica.power for replica in self._replicas.values())

    def power_of(self, replica_id: str) -> float:
        return self.get(replica_id).power

    # -- census -----------------------------------------------------------------

    def configuration_census(
        self, *, weight_by_power: bool = True
    ) -> ConfigurationDistribution:
        """The probability distribution ``p`` over configurations.

        With ``weight_by_power`` (the default) each configuration's share is
        the fraction of total voting power running it — the quantity whose
        entropy Figure 1 plots.  With ``weight_by_power=False`` each replica
        counts equally, matching the classic BFT replica-count view.
        """
        if not self._replicas:
            raise PopulationError("cannot take the census of an empty population")
        weights: Dict[ReplicaConfiguration, float] = {}
        for replica in self._replicas.values():
            weight = replica.power if weight_by_power else 1.0
            weights[replica.configuration] = weights.get(replica.configuration, 0.0) + weight
        return ConfigurationDistribution(weights)

    def entropy(self, *, base: float = 2.0, weight_by_power: bool = True) -> float:
        """Shannon entropy of the configuration census."""
        return self.configuration_census(weight_by_power=weight_by_power).entropy(base=base)

    def replicas_using_component(
        self, component: SoftwareComponent
    ) -> Tuple[Replica, ...]:
        """All replicas whose configuration includes ``component``.

        This is the fault-domain query used by exploit campaigns: a
        vulnerability in ``component`` makes every returned replica Byzantine.
        """
        return tuple(
            replica
            for replica in self._replicas.values()
            if replica.configuration.has_component(component)
        )

    def power_using_component(self, component: SoftwareComponent) -> float:
        """Total voting power exposed to a fault in ``component``."""
        return sum(replica.power for replica in self.replicas_using_component(component))

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def with_unique_configurations(
        cls,
        count: int,
        *,
        power_each: float = 1.0,
        prefix: str = "replica",
        regime: PowerRegime = PowerRegime.REPLICA_COUNT,
        attested: bool = False,
    ) -> "ReplicaPopulation":
        """A population of ``count`` replicas, each with its own configuration.

        This is the classic BFT-SMR assumption (configuration abundance 1)
        used as the comparison point in Example 1.
        """
        if count <= 0:
            raise PopulationError(f"count must be positive, got {count}")
        replicas = [
            Replica(
                replica_id=f"{prefix}-{index}",
                configuration=ReplicaConfiguration.labeled(f"{prefix}-{index}"),
                power=power_each,
                attested=attested,
            )
            for index in range(count)
        ]
        return cls(replicas, regime=regime)

    # -- dunder -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._replicas)

    def __iter__(self) -> Iterator[Replica]:
        return iter(self._replicas.values())

    def __contains__(self, replica_id: str) -> bool:
        return replica_id in self._replicas

    def __repr__(self) -> str:
        return (
            f"ReplicaPopulation(replicas={len(self)}, regime={self._regime.value!r}, "
            f"total_power={self.total_power():.6g})"
        )
