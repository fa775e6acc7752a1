"""Decentralized mining pools and non-outsourceable mining.

Section III-A's "possible solutions" to the pool oligopoly are
non-outsourceable mining puzzles and decentralized mining pools (SmartPool):
both return block-template control (and thus the consensus "vote") to the
individual miners instead of the pool operator, even though payout pooling may
remain.  From the fault-independence point of view this is a diversity
transformation: the pool's aggregated voting power is split back into the
members' individual fault domains.

:func:`decentralize_pools` applies that transformation to a pool landscape and
returns the resulting replica population; :func:`decentralization_report`
summarizes the entropy / dominance / takeover effect so experiments can
quantify how much the mitigation buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.core.exceptions import ProtocolError
from repro.core.population import ReplicaPopulation
from repro.core.power import PowerRegime
from repro.nakamoto.miner import Miner, miners_as_population
from repro.nakamoto.pool import MiningPool


@dataclass(frozen=True)
class DecentralizationReport:
    """Before/after comparison of decentralizing a set of pools.

    Attributes:
        pooled_entropy_bits: census entropy when pool operators control the
            aggregated power (one fault domain per pool).
        decentralized_entropy_bits: census entropy when every member mines
            non-outsourceably (one fault domain per member).
        pooled_largest_share: largest single fault domain before.
        decentralized_largest_share: largest single fault domain after.
        pooled_replicas: number of effective replicas before.
        decentralized_replicas: number of effective replicas after.
    """

    pooled_entropy_bits: float
    decentralized_entropy_bits: float
    pooled_largest_share: float
    decentralized_largest_share: float
    pooled_replicas: int
    decentralized_replicas: int


def pooled_population(
    pools: Sequence[MiningPool], solo_miners: Sequence[Miner] = ()
) -> ReplicaPopulation:
    """One replica per pool operator (plus solo miners) — the status quo."""
    if not pools and not solo_miners:
        raise ProtocolError("at least one pool or solo miner is required")
    replicas = [pool.as_replica() for pool in pools] + [
        miner.as_replica() for miner in solo_miners
    ]
    return ReplicaPopulation(replicas, regime=PowerRegime.HASHRATE)


def decentralize_pools(
    pools: Sequence[MiningPool],
    solo_miners: Sequence[Miner] = (),
    *,
    decentralized_pool_ids: Iterable[str] = None,
) -> ReplicaPopulation:
    """Split pool power back to the members for the selected pools.

    Args:
        pools: the pool landscape.
        solo_miners: miners outside any pool.
        decentralized_pool_ids: pools converted to decentralized operation
            (``None`` = all of them).  Non-selected pools keep operating as a
            single fault domain.

    Returns:
        The effective replica population after the transformation: one replica
        per member miner of every decentralized pool, one replica per
        remaining centralized pool, one per solo miner.
    """
    if not pools and not solo_miners:
        raise ProtocolError("at least one pool or solo miner is required")
    selected = (
        {pool.pool_id for pool in pools}
        if decentralized_pool_ids is None
        else set(decentralized_pool_ids)
    )
    unknown = selected - {pool.pool_id for pool in pools}
    if unknown:
        raise ProtocolError(f"unknown pools: {sorted(unknown)}")
    miners: List[Miner] = list(solo_miners)
    for pool in pools:
        if pool.pool_id in selected:
            if not pool.members:
                raise ProtocolError(
                    f"pool {pool.pool_id!r} has no members to decentralize to"
                )
            miners.extend(pool.members)
        else:
            miners.append(pool.as_miner())
    return miners_as_population(miners)


def decentralization_report(
    pools: Sequence[MiningPool],
    solo_miners: Sequence[Miner] = (),
    *,
    decentralized_pool_ids: Iterable[str] = None,
) -> DecentralizationReport:
    """Quantify the diversity effect of decentralizing the selected pools."""
    before = pooled_population(pools, solo_miners).configuration_census()
    after_population = decentralize_pools(
        pools, solo_miners, decentralized_pool_ids=decentralized_pool_ids
    )
    after = after_population.configuration_census()
    return DecentralizationReport(
        pooled_entropy_bits=before.entropy(),
        decentralized_entropy_bits=after.entropy(),
        pooled_largest_share=max(before.probabilities()),
        decentralized_largest_share=max(after.probabilities()),
        pooled_replicas=before.support_size(),
        decentralized_replicas=after.support_size(),
    )


def operator_takeover_fraction(
    pools: Sequence[MiningPool],
    solo_miners: Sequence[Miner],
    colluding_operators: int,
    *,
    decentralized_pool_ids: Iterable[str] = None,
) -> float:
    """Largest hash-power fraction a coalition of operators controls.

    Before decentralization an "operator" is a pool operator (or solo miner);
    after, the decentralized pools' operators control nothing and their
    members count individually.  This is the Nakamoto analogue of
    Proposition 3's rational-operator analysis.
    """
    if colluding_operators < 0:
        raise ProtocolError(
            f"colluding operator count must be non-negative, got {colluding_operators}"
        )
    population = decentralize_pools(
        pools, solo_miners, decentralized_pool_ids=decentralized_pool_ids
    )
    total = population.total_power()
    powers = sorted((replica.power for replica in population), reverse=True)
    if total <= 0:
        return 0.0
    return min(1.0, sum(powers[:colluding_operators]) / total)
