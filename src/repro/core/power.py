"""The voting-power abstraction ``n_t`` of Section II-A.

The paper unifies three regimes under a single "voting power" abstraction:

- classic BFT: ``n_t`` is the number of replicas (each replica has power 1);
- Bitcoin-like proof of work: ``n_t`` is the total hashrate;
- committee-based permissionless protocols: ``n_t`` is the committee's total
  voting power and everything outside the committee has power zero.

:class:`PowerRegime` names the regime under which a
:class:`~repro.core.population.ReplicaPopulation` records its replica powers.
"""

from __future__ import annotations

from enum import Enum, unique


@unique
class PowerRegime(str, Enum):
    """How voting power units should be interpreted."""

    REPLICA_COUNT = "replica_count"
    HASHRATE = "hashrate"
    COMMITTEE_STAKE = "committee_stake"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
