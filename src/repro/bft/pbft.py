"""A PBFT-style three-phase consensus protocol on the simulator.

The protocol is the single-view core of PBFT (Castro & Liskov): the primary
broadcasts PRE-PREPARE, every replica broadcasts PREPARE after accepting the
primary's proposal, broadcasts COMMIT after collecting a quorum (2f+1) of
matching PREPAREs, and decides after a quorum of matching COMMITs.  View
changes are out of scope for the fault-independence experiments (safety, not
liveness under faulty primaries, is what the paper's condition is about), but
the Byzantine behaviours that threaten safety are modeled:

- a Byzantine primary equivocates, proposing conflicting values to the two
  halves of the replica set;
- Byzantine backups vote (PREPARE and COMMIT) for every value they observe.

With at most ``f`` Byzantine replicas no two conflicting quorums can form
(their intersection of ``f+1`` replicas would have to double-vote), so honest
ledgers always agree; with ``f+1`` or more the run produces a demonstrable
safety violation — exactly the cliff the Section II-C condition describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.bft.ledger import AgreementReport, ReplicatedLedger, check_agreement
from repro.bft.quorum import QuorumModel, QuorumSpec
from repro.bft.replica import BftReplicaBase, equivocation_value
from repro.core.exceptions import ProtocolError
from repro.faults.injection import FaultSchedule
from repro.sim.events import Scheduler
from repro.sim.network import NetworkConfig, SimulatedNetwork
from repro.sim.node import Message

PRE_PREPARE = "PRE_PREPARE"
PREPARE = "PREPARE"
COMMIT = "COMMIT"


class PbftReplica(BftReplicaBase):
    """One PBFT replica (primary or backup)."""

    def __init__(
        self,
        node_id: str,
        quorum: QuorumSpec,
        *,
        primary_id: str,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        super().__init__(node_id, quorum, fault_schedule=fault_schedule)
        self.primary_id = primary_id
        self._pre_prepared: Dict[int, str] = {}
        self._prepare_sent: Dict[Tuple[int, str], bool] = {}
        self._commit_sent: Dict[Tuple[int, str], bool] = {}
        self._byz_endorsed: Dict[Tuple[int, str], bool] = {}

    @property
    def is_primary(self) -> bool:
        return self.node_id == self.primary_id

    # -- proposing -------------------------------------------------------------------

    def propose(self, sequence: int, value: str) -> None:
        """Primary entry point: start consensus on ``value`` at ``sequence``."""
        if not self.is_primary:
            raise ProtocolError(f"replica {self.node_id!r} is not the primary")
        if self.is_crashed_by_schedule():
            return
        if self.is_byzantine():
            first_half, second_half = self.split_halves()
            conflicting = equivocation_value(value)
            for node_id in first_half:
                self.send(node_id, PRE_PREPARE, {"sequence": sequence, "value": value})
            for node_id in second_half:
                self.send(node_id, PRE_PREPARE, {"sequence": sequence, "value": conflicting})
            return
        self.broadcast(PRE_PREPARE, {"sequence": sequence, "value": value})

    # -- message handling ---------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.is_crashed_by_schedule():
            return
        sequence = int(message.get("sequence"))
        value = str(message.get("value"))
        if self.is_byzantine():
            # Byzantine replicas endorse every (sequence, value) pair they
            # ever observe, in both voting phases; this is the strongest
            # safety-threatening behaviour available without forging other
            # replicas' messages.
            self._byz_endorse(sequence, value)
            return
        if message.msg_type == PRE_PREPARE:
            self._handle_pre_prepare(message.sender, sequence, value)
        elif message.msg_type == PREPARE:
            self._handle_prepare(message.sender, sequence, value)
        elif message.msg_type == COMMIT:
            self._handle_commit(message.sender, sequence, value)
        else:
            raise ProtocolError(f"unexpected message type {message.msg_type!r}")

    def _handle_pre_prepare(self, sender: str, sequence: int, value: str) -> None:
        if sender != self.primary_id:
            # Only the primary may pre-prepare in this view; ignore others.
            return
        if sequence in self._pre_prepared:
            return  # accept only the first proposal per sequence
        self._pre_prepared[sequence] = value
        self._send_prepare_once(sequence, value)

    def _handle_prepare(self, sender: str, sequence: int, value: str) -> None:
        count = self.votes.record(PREPARE, sequence, value, sender)
        accepted = self._pre_prepared.get(sequence)
        if accepted != value:
            return
        if count >= self.quorum.quorum_size:
            self._send_commit_once(sequence, value)

    def _handle_commit(self, sender: str, sequence: int, value: str) -> None:
        count = self.votes.record(COMMIT, sequence, value, sender)
        accepted = self._pre_prepared.get(sequence)
        if accepted != value:
            return
        if count >= self.quorum.quorum_size:
            self.commit(sequence, value)

    # -- internals -------------------------------------------------------------------------

    def _byz_endorse(self, sequence: int, value: str) -> None:
        key = (sequence, value)
        if self._byz_endorsed.get(key):
            return
        self._byz_endorsed[key] = True
        self.broadcast(PREPARE, {"sequence": sequence, "value": value})
        self.broadcast(COMMIT, {"sequence": sequence, "value": value})

    def _send_prepare_once(self, sequence: int, value: str) -> None:
        key = (sequence, value)
        if self._prepare_sent.get(key):
            return
        self._prepare_sent[key] = True
        self.broadcast(PREPARE, {"sequence": sequence, "value": value})

    def _send_commit_once(self, sequence: int, value: str) -> None:
        key = (sequence, value)
        if self._commit_sent.get(key):
            return
        self._commit_sent[key] = True
        self.broadcast(COMMIT, {"sequence": sequence, "value": value})


@dataclass
class PbftRun:
    """Builds and executes one PBFT run over a set of replica ids."""

    replica_ids: Sequence[str]
    fault_schedule: FaultSchedule
    network_config: NetworkConfig = NetworkConfig()
    primary_id: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.replica_ids) < 4:
            raise ProtocolError("PBFT needs at least 4 replicas")
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ProtocolError("replica ids must be unique")
        if self.primary_id is None:
            self.primary_id = self.replica_ids[0]
        if self.primary_id not in self.replica_ids:
            raise ProtocolError(f"primary {self.primary_id!r} is not a replica")

    def execute(
        self,
        values: Sequence[str] = ("request-0",),
        *,
        until: float = 10.0,
    ) -> "PbftRunResult":
        """Run consensus on the given values (one sequence number per value)."""
        if not values:
            raise ProtocolError("at least one value is required")
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler, self.network_config)
        quorum = QuorumSpec(total_replicas=len(self.replica_ids), model=QuorumModel.CLASSIC)
        replicas = {
            node_id: PbftReplica(
                node_id,
                quorum,
                primary_id=self.primary_id,
                fault_schedule=self.fault_schedule,
            )
            for node_id in self.replica_ids
        }
        network.register_all(replicas.values())
        network.start()
        primary = replicas[self.primary_id]
        for sequence, value in enumerate(values):
            scheduler.call_at(
                0.0,
                lambda seq=sequence, val=value: primary.propose(seq, val),
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
        return PbftRunResult(
            quorum=quorum,
            agreement=agreement,
            honest_ids=tuple(honest_ids),
            messages_sent=network.metrics.counter("messages_sent"),
            duration=scheduler.now,
            sequences=tuple(range(len(values))),
        )


@dataclass(frozen=True)
class PbftRunResult:
    """Outcome of one PBFT run."""

    quorum: QuorumSpec
    agreement: AgreementReport
    honest_ids: Tuple[str, ...]
    messages_sent: float
    duration: float
    sequences: Tuple[int, ...]

    @property
    def safety_ok(self) -> bool:
        """No two honest replicas decided different values at any sequence."""
        return self.agreement.safe

    @property
    def all_honest_decided(self) -> bool:
        """Every sequence was decided identically by every honest replica."""
        return set(self.sequences) <= set(self.agreement.fully_replicated_sequences)
