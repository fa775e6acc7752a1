"""Power-weighted committee selection.

Many permissionless protocols (the "membership selection" family the paper's
reference [15] surveys) do not run consensus over the whole population; they
sample a committee whose members' voting power is what ``n_t`` refers to.
Committee selection interacts with fault independence in two ways the
experiments exercise:

- the committee census inherits (a sampled version of) the population's
  configuration distribution, so low population diversity means low committee
  diversity;
- a shared vulnerability can compromise a super-threshold fraction *of the
  committee* even when its share of the whole population is below threshold,
  because sampling concentrates power.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import MembershipError
from repro.core.population import Replica, ReplicaPopulation
from repro.core.power import PowerRegime


@dataclass(frozen=True)
class Committee:
    """A selected consensus committee.

    Attributes:
        members: ids of the selected replicas.
        seats_by_member: number of seats each member won (power-weighted
            sampling with replacement can give a participant several seats).
        total_seats: committee size in seats.
    """

    members: FrozenSet[str]
    seats_by_member: Tuple[Tuple[str, int], ...]
    total_seats: int

    def __len__(self) -> int:
        return len(self.members)


def select_committee(
    population: ReplicaPopulation,
    seats: int,
    *,
    seed: int = 0,
) -> Committee:
    """Sample a committee of ``seats`` seats, power-weighted with replacement.

    Sampling with replacement models lottery-style selection (PoS slot
    leaders, PoET-like elections): each seat goes to a replica with
    probability proportional to its voting power.
    """
    if seats <= 0:
        raise MembershipError(f"committee seats must be positive, got {seats}")
    replicas = population.replicas()
    if not replicas:
        raise MembershipError("cannot select a committee from an empty population")
    weights = [replica.power for replica in replicas]
    if sum(weights) <= 0:
        raise MembershipError("total voting power must be positive")
    rng = random.Random(seed)
    winners = rng.choices(replicas, weights=weights, k=seats)
    seat_counts: dict = {}
    for winner in winners:
        seat_counts[winner.replica_id] = seat_counts.get(winner.replica_id, 0) + 1
    return Committee(
        members=frozenset(seat_counts),
        seats_by_member=tuple(sorted(seat_counts.items())),
        total_seats=seats,
    )


def committee_population(
    population: ReplicaPopulation, committee: Committee
) -> ReplicaPopulation:
    """The committee as a population (power = seats held).

    The committee population is what the Section II-C condition applies to in
    committee-based protocols: ``n_t`` is the total seats, and compromising a
    member compromises its seats.
    """
    members = []
    for replica_id, seats in committee.seats_by_member:
        original = population.get(replica_id)
        members.append(
            Replica(
                replica_id=replica_id,
                configuration=original.configuration,
                power=float(seats),
                attested=original.attested,
            )
        )
    if not members:
        raise MembershipError("the committee is empty")
    return ReplicaPopulation(members, regime=PowerRegime.COMMITTEE_STAKE)


def committee_census(
    population: ReplicaPopulation, committee: Committee
) -> ConfigurationDistribution:
    """Configuration distribution of the committee, weighted by seats."""
    return committee_population(population, committee).configuration_census()
