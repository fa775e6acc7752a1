"""Shared machinery for the simulated BFT replicas.

Every protocol replica derives from :class:`BftReplicaBase`, which provides:

- the replica's :class:`~repro.bft.quorum.QuorumSpec` and committed
  :class:`~repro.bft.ledger.ReplicatedLedger`;
- its *behaviour* (honest, crashed, Byzantine) derived from a
  :class:`~repro.faults.injection.FaultSchedule`;
- vote bookkeeping with per-(phase, sequence, value) counting of distinct
  voters, which is what quorum checks need.

The Byzantine behaviour model follows Section II-B: the adversary can delay,
drop, re-order, insert and modify messages of the replicas it controls, but it
cannot forge other replicas' signatures (the cryptographic primitives are
assumed sound).  Concretely, Byzantine replicas here equivocate and vote for
every value they see; they never impersonate honest replicas.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.bft.ledger import ReplicatedLedger
from repro.bft.quorum import QuorumSpec
from repro.core.exceptions import ProtocolError
from repro.faults.injection import FaultKind, FaultSchedule
from repro.sim.node import SimulatedNode

VoteKey = Tuple[str, int, str]  # (phase, sequence, value)


class VoteBook:
    """Counts distinct voters per (phase, sequence, value)."""

    def __init__(self) -> None:
        self._votes: Dict[VoteKey, Set[str]] = {}

    def record(self, phase: str, sequence: int, value: str, voter: str) -> int:
        """Record one vote and return the number of distinct voters so far."""
        key = (phase, sequence, value)
        voters = self._votes.setdefault(key, set())
        voters.add(voter)
        return len(voters)


class BftReplicaBase(SimulatedNode):
    """Base class for PBFT, HotStuff and hybrid replicas."""

    def __init__(
        self,
        node_id: str,
        quorum: QuorumSpec,
        *,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        super().__init__(node_id)
        self.quorum = quorum
        self.ledger = ReplicatedLedger(owner_id=node_id)
        self.votes = VoteBook()
        self._fault_schedule = (
            fault_schedule if fault_schedule is not None else FaultSchedule()
        )

    # -- behaviour -----------------------------------------------------------------

    def fault_kind(self) -> Optional[FaultKind]:
        """The fault active for this replica at the current simulated time."""
        return self._fault_schedule.kind_at(self.node_id, self.now)

    def is_byzantine(self) -> bool:
        """True when the replica is currently under Byzantine control."""
        return self.fault_kind() in (FaultKind.BYZANTINE, FaultKind.EQUIVOCATE)

    def is_crashed_by_schedule(self) -> bool:
        """True when the schedule says the replica has crashed."""
        return self.fault_kind() is FaultKind.CRASH

    # -- convenience ----------------------------------------------------------------

    def commit(self, sequence: int, value: str) -> None:
        """Append a decision to the local ledger (honest replicas only).

        Byzantine replicas' ledgers are not meaningful for safety analysis, so
        they simply skip the bookkeeping.
        """
        if self.is_byzantine():
            return
        self.ledger.commit(sequence, value)

    def split_halves(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Deterministically split all replicas into two halves.

        Byzantine equivocation targets one value at each half; the split is by
        registration order so runs stay reproducible.
        """
        ids = list(self.network.node_ids())
        middle = len(ids) // 2
        return tuple(ids[:middle]), tuple(ids[middle:])

    # -- defaults ---------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(node_id={self.node_id!r}, n={self.quorum.total_replicas}, "
            f"f={self.quorum.fault_bound})"
        )


def equivocation_value(value: str) -> str:
    """The conflicting value a Byzantine proposer offers to the second half."""
    if not value:
        raise ProtocolError("cannot derive an equivocation value from an empty value")
    return f"{value}'"
