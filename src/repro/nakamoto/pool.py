"""Mining pools: the oligopoly structure behind Example 1.

A pool aggregates the hash power of its member miners; the *pool operator*
chooses what its aggregated power mines, so from a fault-independence point of
view the pool is one replica with the combined power (Section III-A's point
about delegation reducing diversity).  ``pools_from_snapshot`` builds the
02-Feb-2023 pool landscape used by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.configuration import ReplicaConfiguration
from repro.core.exceptions import ProtocolError
from repro.core.population import Replica
from repro.datasets.bitcoin_pools import BITCOIN_POOL_SHARES_FEB_2023, RESIDUAL_SHARE_FEB_2023
from repro.nakamoto.miner import Miner


@dataclass
class MiningPool:
    """One mining pool and its member miners.

    Attributes:
        pool_id: unique pool identifier.
        operator_configuration: the configuration of the pool's coordination
            software (the fault domain that matters for pool-level attacks).
        members: miners contributing hash power to the pool.
    """

    pool_id: str
    operator_configuration: Optional[ReplicaConfiguration] = None
    members: List[Miner] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.pool_id:
            raise ProtocolError("pool id must not be empty")
        if self.operator_configuration is None:
            self.operator_configuration = ReplicaConfiguration.labeled(self.pool_id)

    # -- membership ---------------------------------------------------------------

    def add_member(self, miner: Miner) -> None:
        """Add a miner to the pool (rewrites its pool id)."""
        if any(member.miner_id == miner.miner_id for member in self.members):
            raise ProtocolError(f"miner {miner.miner_id!r} already in pool {self.pool_id!r}")
        self.members.append(
            Miner(
                miner_id=miner.miner_id,
                hash_power=miner.hash_power,
                configuration=miner.configuration,
                compromised=miner.compromised,
                pool_id=self.pool_id,
            )
        )

    def total_hash_power(self) -> float:
        """Combined hash power of the pool."""
        return sum(member.hash_power for member in self.members)

    def as_replica(self) -> Replica:
        """The pool viewed as a single replica with the combined power."""
        return Replica(
            replica_id=self.pool_id,
            configuration=self.operator_configuration,
            power=self.total_hash_power(),
        )

    def as_miner(self) -> Miner:
        """The pool viewed as a single (aggregate) miner."""
        return Miner(
            miner_id=self.pool_id,
            hash_power=self.total_hash_power(),
            configuration=self.operator_configuration,
        )

    def __len__(self) -> int:
        return len(self.members)


def pools_from_snapshot(
    *,
    residual_miners: int = 0,
    members_per_pool: int = 1,
) -> Tuple[List[MiningPool], List[Miner]]:
    """Build the 02-Feb-2023 Bitcoin pool landscape.

    Args:
        residual_miners: how many solo miners share the residual 0.87% of
            hash power (0 omits the residual entirely).
        members_per_pool: how many equal-power member miners each pool has
            (1 keeps the pool-as-single-miner abstraction of Figure 1).

    Returns:
        ``(pools, solo_miners)``.
    """
    if residual_miners < 0:
        raise ProtocolError(f"residual miners must be non-negative, got {residual_miners}")
    if members_per_pool <= 0:
        raise ProtocolError(f"members per pool must be positive, got {members_per_pool}")
    pools: List[MiningPool] = []
    for pool_name, share in BITCOIN_POOL_SHARES_FEB_2023:
        pool = MiningPool(pool_id=pool_name)
        member_power = share / members_per_pool
        for index in range(members_per_pool):
            pool.add_member(
                Miner(miner_id=f"{pool_name}-member-{index}", hash_power=member_power)
            )
        pools.append(pool)
    solo: List[Miner] = []
    if residual_miners:
        per_miner = RESIDUAL_SHARE_FEB_2023 / residual_miners
        solo = [
            Miner(miner_id=f"solo-{index}", hash_power=per_miner)
            for index in range(residual_miners)
        ]
    return pools, solo
