"""Miners: the replicas of the Nakamoto regime.

A miner holds hash power and runs a software stack just like any other
replica; its :class:`~repro.core.configuration.ReplicaConfiguration` is what
ties the Nakamoto substrate back to the fault-independence analysis (a
vulnerability in a mining client compromises the hash power of every miner
running it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.configuration import ReplicaConfiguration
from repro.core.exceptions import ProtocolError
from repro.core.population import Replica, ReplicaPopulation
from repro.core.power import PowerRegime


@dataclass(frozen=True)
class Miner:
    """One mining participant.

    Attributes:
        miner_id: unique identifier.
        hash_power: absolute hash power (arbitrary units; only ratios matter).
        configuration: the miner's software/hardware stack (defaults to a
            unique labeled configuration, the paper's best-case assumption).
        compromised: whether the miner is currently attacker-controlled.
        pool_id: the mining pool this miner contributes to (``None`` = solo).
    """

    miner_id: str
    hash_power: float
    configuration: Optional[ReplicaConfiguration] = None
    compromised: bool = False
    pool_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.miner_id:
            raise ProtocolError("miner id must not be empty")
        if self.hash_power < 0:
            raise ProtocolError(f"hash power must be non-negative, got {self.hash_power}")
        if self.configuration is None:
            object.__setattr__(
                self, "configuration", ReplicaConfiguration.labeled(self.miner_id)
            )

    def as_replica(self) -> Replica:
        """View this miner as a generic replica (power = hash power)."""
        return Replica(
            replica_id=self.miner_id,
            configuration=self.configuration,
            power=self.hash_power,
        )


def miners_as_population(miners) -> ReplicaPopulation:
    """Convert a collection of miners into a :class:`ReplicaPopulation`.

    The resulting population uses the hashrate power regime so the entropy and
    resilience analysis applies unchanged.
    """
    miners = list(miners)
    if not miners:
        raise ProtocolError("at least one miner is required")
    return ReplicaPopulation(
        (miner.as_replica() for miner in miners), regime=PowerRegime.HASHRATE
    )
