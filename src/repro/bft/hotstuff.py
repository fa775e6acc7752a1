"""A streamlined, leader-driven (HotStuff-style) consensus protocol.

The protocol keeps HotStuff's communication pattern — replicas vote *to the
leader*, the leader aggregates a quorum certificate (QC) and broadcasts it —
and its three voting phases (PREPARE, PRE-COMMIT, COMMIT) followed by a
DECIDE broadcast.  Message complexity is therefore linear per phase instead
of quadratic, which is the trade-off Proposition 3's overhead discussion
refers to.

Modeling choices (all consistent with Section II-B's assumption that
cryptographic primitives are sound):

- QCs are unforgeable: a Byzantine leader cannot fabricate a QC it did not
  collect enough votes for.  Its power is equivocation (sending conflicting
  proposals to the two halves of the replica set) and withholding.
- Byzantine replicas vote for every proposal they see, in every phase.
- View changes / pacemakers are out of scope; the experiments only need the
  safety behaviour of a single view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.bft.ledger import AgreementReport, ReplicatedLedger, check_agreement
from repro.bft.quorum import QuorumModel, QuorumSpec
from repro.bft.replica import BftReplicaBase, equivocation_value
from repro.core.exceptions import ProtocolError
from repro.faults.injection import FaultSchedule
from repro.sim.events import Scheduler
from repro.sim.network import NetworkConfig, SimulatedNetwork
from repro.sim.node import Message

PROPOSE = "PROPOSE"
VOTE_PREPARE = "VOTE_PREPARE"
QC_PREPARE = "QC_PREPARE"
VOTE_PRECOMMIT = "VOTE_PRECOMMIT"
QC_PRECOMMIT = "QC_PRECOMMIT"
VOTE_COMMIT = "VOTE_COMMIT"
DECIDE = "DECIDE"

#: Vote phase -> QC message the leader emits when the phase reaches quorum.
_NEXT_OF_VOTE = {
    VOTE_PREPARE: QC_PREPARE,
    VOTE_PRECOMMIT: QC_PRECOMMIT,
    VOTE_COMMIT: DECIDE,
}

#: QC message -> vote the replicas respond with.
_VOTE_AFTER_QC = {
    PROPOSE: VOTE_PREPARE,
    QC_PREPARE: VOTE_PRECOMMIT,
    QC_PRECOMMIT: VOTE_COMMIT,
}


class HotStuffReplica(BftReplicaBase):
    """One replica of the streamlined protocol (leader or follower)."""

    def __init__(
        self,
        node_id: str,
        quorum: QuorumSpec,
        *,
        leader_id: str,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        super().__init__(node_id, quorum, fault_schedule=fault_schedule)
        self.leader_id = leader_id
        self._locked_value: Dict[int, str] = {}
        self._qc_broadcast: Set[Tuple[str, int, str]] = set()

    @property
    def is_leader(self) -> bool:
        return self.node_id == self.leader_id

    # -- leader entry point ------------------------------------------------------------

    def propose(self, sequence: int, value: str) -> None:
        """Leader entry point: start consensus on ``value`` at ``sequence``."""
        if not self.is_leader:
            raise ProtocolError(f"replica {self.node_id!r} is not the leader")
        if self.is_crashed_by_schedule():
            return
        if self.is_byzantine():
            first_half, second_half = self.split_halves()
            conflicting = equivocation_value(value)
            for node_id in first_half:
                self.send(node_id, PROPOSE, {"sequence": sequence, "value": value})
            for node_id in second_half:
                self.send(node_id, PROPOSE, {"sequence": sequence, "value": conflicting})
            # Colluding Byzantine replicas learn both proposals out of band so
            # they can vote for both; this models coordinated equivocation.
            for node_id in self.network.node_ids():
                if self._fault_schedule.is_faulty_at(node_id, self.now):
                    self.send(node_id, PROPOSE, {"sequence": sequence, "value": value})
                    self.send(node_id, PROPOSE, {"sequence": sequence, "value": conflicting})
            return
        self.broadcast(PROPOSE, {"sequence": sequence, "value": value})

    # -- message handling -----------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.is_crashed_by_schedule():
            return
        sequence = int(message.get("sequence"))
        value = str(message.get("value"))
        msg_type = message.msg_type
        if msg_type in _VOTE_AFTER_QC:
            self._handle_proposal_or_qc(message.sender, msg_type, sequence, value)
        elif msg_type in _NEXT_OF_VOTE:
            self._handle_vote(message.sender, msg_type, sequence, value)
        elif msg_type == DECIDE:
            self._handle_decide(message.sender, sequence, value)
        else:
            raise ProtocolError(f"unexpected message type {msg_type!r}")

    def _handle_proposal_or_qc(
        self, sender: str, msg_type: str, sequence: int, value: str
    ) -> None:
        if sender != self.leader_id:
            return
        vote_type = _VOTE_AFTER_QC[msg_type]
        if self.is_byzantine():
            self.send(self.leader_id, vote_type, {"sequence": sequence, "value": value})
            return
        if msg_type == PROPOSE:
            if sequence in self._locked_value:
                # Accept only the first proposal per sequence in this view.
                if self._locked_value[sequence] != value:
                    return
            else:
                self._locked_value[sequence] = value
        elif self._locked_value.get(sequence) != value:
            # A QC for a value we never accepted: stale or equivocation, ignore.
            return
        self.send(self.leader_id, vote_type, {"sequence": sequence, "value": value})

    def _handle_vote(self, sender: str, vote_type: str, sequence: int, value: str) -> None:
        if not self.is_leader:
            return
        count = self.votes.record(vote_type, sequence, value, sender)
        if count < self.quorum.quorum_size:
            return
        qc_type = _NEXT_OF_VOTE[vote_type]
        key = (qc_type, sequence, value)
        if key in self._qc_broadcast:
            return
        self._qc_broadcast.add(key)
        # The QC is backed by a real quorum of votes; even a Byzantine leader
        # can only broadcast certificates it actually collected.
        self.broadcast(qc_type, {"sequence": sequence, "value": value})

    def _handle_decide(self, sender: str, sequence: int, value: str) -> None:
        if sender != self.leader_id:
            return
        if self.is_byzantine():
            return
        if self._locked_value.get(sequence) != value:
            return
        self.commit(sequence, value)


@dataclass
class HotStuffRun:
    """Builds and executes one streamlined-protocol run."""

    replica_ids: Sequence[str]
    fault_schedule: FaultSchedule
    network_config: NetworkConfig = NetworkConfig()
    leader_id: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.replica_ids) < 4:
            raise ProtocolError("the streamlined protocol needs at least 4 replicas")
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ProtocolError("replica ids must be unique")
        if self.leader_id is None:
            self.leader_id = self.replica_ids[0]
        if self.leader_id not in self.replica_ids:
            raise ProtocolError(f"leader {self.leader_id!r} is not a replica")

    def execute(
        self,
        values: Sequence[str] = ("request-0",),
        *,
        until: float = 10.0,
    ) -> "HotStuffRunResult":
        """Run consensus on the given values (one sequence number per value)."""
        if not values:
            raise ProtocolError("at least one value is required")
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler, self.network_config)
        quorum = QuorumSpec(total_replicas=len(self.replica_ids), model=QuorumModel.CLASSIC)
        replicas = {
            node_id: HotStuffReplica(
                node_id,
                quorum,
                leader_id=self.leader_id,
                fault_schedule=self.fault_schedule,
            )
            for node_id in self.replica_ids
        }
        network.register_all(replicas.values())
        network.start()
        leader = replicas[self.leader_id]
        for sequence, value in enumerate(values):
            scheduler.call_at(
                0.0,
                lambda seq=sequence, val=value: leader.propose(seq, val),
                label=f"propose:{sequence}",
            )
        scheduler.run(until=until)
        honest_ids = [
            node_id
            for node_id in self.replica_ids
            if not self.fault_schedule.is_faulty_at(node_id, 0.0)
        ]
        ledgers: Dict[str, ReplicatedLedger] = {
            node_id: replica.ledger for node_id, replica in replicas.items()
        }
        agreement = check_agreement(ledgers, honest_ids=honest_ids or None)
        return HotStuffRunResult(
            quorum=quorum,
            agreement=agreement,
            honest_ids=tuple(honest_ids),
            messages_sent=network.metrics.counter("messages_sent"),
            duration=scheduler.now,
            sequences=tuple(range(len(values))),
        )


@dataclass(frozen=True)
class HotStuffRunResult:
    """Outcome of one streamlined-protocol run."""

    quorum: QuorumSpec
    agreement: AgreementReport
    honest_ids: Tuple[str, ...]
    messages_sent: float
    duration: float
    sequences: Tuple[int, ...]

    @property
    def safety_ok(self) -> bool:
        return self.agreement.safe

    @property
    def all_honest_decided(self) -> bool:
        return set(self.sequences) <= set(self.agreement.fully_replicated_sequences)
