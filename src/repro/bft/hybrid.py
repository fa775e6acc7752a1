"""A hybrid BFT protocol relying on trusted components (Damysus / MinBFT style).

Hybrid protocols attach a small trusted component (an attested counter /
unique sequential identifier generator) to every replica.  Because the trusted
component signs at most one message per counter value, a Byzantine replica
cannot equivocate, which lowers the replica requirement to ``n = 2f + 1`` and
the quorum size to ``f + 1``.

The paper's Section III-A warns that this extra efficiency creates a new
shared fault domain: if the trusted hardware itself (e.g. SGX) has an
exploitable vulnerability, the equivocation protection disappears on every
replica using that hardware.  The simulation models this directly: each
replica has a ``tee_compromised`` flag; Byzantine behaviour is limited to
"single vote per counter" while the flag is false and becomes full
equivocation once it is true.  A single trusted-hardware vulnerability shared
by a quorum's worth of replicas therefore breaks safety with far fewer faults
than the classic protocol would need — the motivating example for trusted
hardware diversity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.bft.ledger import AgreementReport, ReplicatedLedger, check_agreement
from repro.bft.quorum import QuorumModel, QuorumSpec
from repro.bft.replica import BftReplicaBase, equivocation_value
from repro.core.exceptions import ProtocolError
from repro.faults.injection import FaultSchedule
from repro.sim.events import Scheduler
from repro.sim.network import NetworkConfig, SimulatedNetwork
from repro.sim.node import Message

PREPARE = "PREPARE"
COMMIT = "COMMIT"


class TrustedCounter:
    """A minimal USIG-style trusted monotonic counter.

    ``assign`` binds a value to the next counter slot and refuses to bind a
    *different* value to an already-used slot — unless the component has been
    compromised, in which case the attacker can re-sign arbitrarily.
    """

    def __init__(self, *, compromised: bool = False) -> None:
        self.compromised = compromised
        self._assignments: Dict[int, str] = {}

    def assign(self, counter: int, value: str) -> bool:
        """Try to bind ``value`` to ``counter``; returns whether it is allowed."""
        if counter < 0:
            raise ProtocolError(f"counter must be non-negative, got {counter}")
        if self.compromised:
            return True
        existing = self._assignments.get(counter)
        if existing is None:
            self._assignments[counter] = value
            return True
        return existing == value


class HybridReplica(BftReplicaBase):
    """One replica of the hybrid (trusted-component) protocol."""

    def __init__(
        self,
        node_id: str,
        quorum: QuorumSpec,
        *,
        primary_id: str,
        fault_schedule: Optional[FaultSchedule] = None,
        tee_compromised: bool = False,
    ) -> None:
        super().__init__(node_id, quorum, fault_schedule=fault_schedule)
        self.primary_id = primary_id
        self.trusted_counter = TrustedCounter(compromised=tee_compromised)
        self._accepted: Dict[int, str] = {}
        self._commit_sent: Set[Tuple[int, str]] = set()

    @property
    def is_primary(self) -> bool:
        return self.node_id == self.primary_id

    @property
    def tee_compromised(self) -> bool:
        return self.trusted_counter.compromised

    # -- proposing --------------------------------------------------------------------

    def propose(self, sequence: int, value: str) -> None:
        """Primary entry point: bind ``value`` to the trusted counter and send it."""
        if not self.is_primary:
            raise ProtocolError(f"replica {self.node_id!r} is not the primary")
        if self.is_crashed_by_schedule():
            return
        if self.is_byzantine() and self.tee_compromised:
            # Equivocation is only possible once the trusted component falls.
            first_half, second_half = self.split_halves()
            conflicting = equivocation_value(value)
            for node_id in first_half:
                self.send(node_id, PREPARE, {"sequence": sequence, "value": value})
            for node_id in second_half:
                self.send(node_id, PREPARE, {"sequence": sequence, "value": conflicting})
            return
        # Honest primaries — and Byzantine primaries with an intact trusted
        # component — can only get one value signed per counter slot.
        if not self.trusted_counter.assign(sequence, value):
            return
        self.broadcast(PREPARE, {"sequence": sequence, "value": value})

    # -- message handling ----------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.is_crashed_by_schedule():
            return
        sequence = int(message.get("sequence"))
        value = str(message.get("value"))
        if message.msg_type == PREPARE:
            self._handle_prepare(message.sender, sequence, value)
        elif message.msg_type == COMMIT:
            self._handle_commit(message.sender, sequence, value)
        else:
            raise ProtocolError(f"unexpected message type {message.msg_type!r}")

    def _handle_prepare(self, sender: str, sequence: int, value: str) -> None:
        if sender != self.primary_id:
            return
        if self.is_byzantine():
            self._send_commit(sequence, value)
            return
        if sequence in self._accepted:
            return
        self._accepted[sequence] = value
        self._send_commit(sequence, value)

    def _handle_commit(self, sender: str, sequence: int, value: str) -> None:
        count = self.votes.record(COMMIT, sequence, value, sender)
        if self.is_byzantine():
            # A Byzantine replica may endorse values it sees in others'
            # commits, but its trusted counter still limits it to one
            # commit per slot unless compromised.
            self._send_commit(sequence, value)
            return
        accepted = self._accepted.get(sequence)
        if accepted is None and self.is_primary:
            accepted = value if self.trusted_counter.assign(sequence, value) else None
        if accepted != value:
            return
        if count >= self.quorum.quorum_size:
            self.commit(sequence, value)

    # -- internals ---------------------------------------------------------------------------

    def _send_commit(self, sequence: int, value: str) -> None:
        key = (sequence, value)
        if key in self._commit_sent:
            return
        if not self.trusted_counter.assign(sequence, value):
            return  # the trusted component refuses to double-sign this slot
        self._commit_sent.add(key)
        self.broadcast(COMMIT, {"sequence": sequence, "value": value})


@dataclass
class HybridRun:
    """Builds and executes one hybrid-protocol run."""

    replica_ids: Sequence[str]
    fault_schedule: FaultSchedule
    network_config: NetworkConfig = NetworkConfig()
    primary_id: Optional[str] = None
    tee_compromised_ids: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if len(self.replica_ids) < 3:
            raise ProtocolError("the hybrid protocol needs at least 3 replicas")
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ProtocolError("replica ids must be unique")
        if self.primary_id is None:
            self.primary_id = self.replica_ids[0]
        if self.primary_id not in self.replica_ids:
            raise ProtocolError(f"primary {self.primary_id!r} is not a replica")
        self.tee_compromised_ids = frozenset(self.tee_compromised_ids)
        unknown = self.tee_compromised_ids - set(self.replica_ids)
        if unknown:
            raise ProtocolError(f"unknown replicas in tee_compromised_ids: {sorted(unknown)}")

    def execute(
        self,
        values: Sequence[str] = ("request-0",),
        *,
        until: float = 10.0,
    ) -> "HybridRunResult":
        """Run consensus on the given values (one sequence number per value)."""
        if not values:
            raise ProtocolError("at least one value is required")
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler, self.network_config)
        quorum = QuorumSpec(total_replicas=len(self.replica_ids), model=QuorumModel.HYBRID)
        replicas = {
            node_id: HybridReplica(
                node_id,
                quorum,
                primary_id=self.primary_id,
                fault_schedule=self.fault_schedule,
                tee_compromised=node_id in self.tee_compromised_ids,
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
        return HybridRunResult(
            quorum=quorum,
            agreement=agreement,
            honest_ids=tuple(honest_ids),
            tee_compromised_ids=self.tee_compromised_ids,
            messages_sent=network.metrics.counter("messages_sent"),
            duration=scheduler.now,
            sequences=tuple(range(len(values))),
        )


@dataclass(frozen=True)
class HybridRunResult:
    """Outcome of one hybrid-protocol run."""

    quorum: QuorumSpec
    agreement: AgreementReport
    honest_ids: Tuple[str, ...]
    tee_compromised_ids: FrozenSet[str]
    messages_sent: float
    duration: float
    sequences: Tuple[int, ...]

    @property
    def safety_ok(self) -> bool:
        return self.agreement.safe

    @property
    def all_honest_decided(self) -> bool:
        return set(self.sequences) <= set(self.agreement.fully_replicated_sequences)
