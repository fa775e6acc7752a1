"""A uniform front end over the three BFT protocol simulations.

:func:`run_consensus` takes a replica population (or a plain list of replica
ids), a fault schedule and a protocol name, runs one consensus instance and
returns a :class:`ConsensusRunResult` with the fields every experiment needs:
did safety hold, did the honest replicas decide, and how many messages were
exchanged.  This is the function the end-to-end fault-independence
experiments and the examples call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple, Union

from repro.bft.hotstuff import HotStuffRun
from repro.bft.hybrid import HybridRun
from repro.bft.pbft import PbftRun
from repro.bft.quorum import QuorumModel, QuorumSpec
from repro.core.exceptions import ProtocolError
from repro.core.population import ReplicaPopulation
from repro.faults.injection import FaultSchedule
from repro.sim.network import NetworkConfig

#: Protocols understood by :func:`run_consensus`.
SUPPORTED_PROTOCOLS = ("pbft", "hotstuff", "hybrid")


@dataclass(frozen=True)
class ConsensusRunResult:
    """Protocol-independent summary of one consensus run.

    Attributes:
        protocol: which protocol ran ("pbft", "hotstuff" or "hybrid").
        quorum: the replica-count / quorum arithmetic used.
        byzantine_count: replicas Byzantine at time zero per the schedule.
        safety_ok: no two honest replicas decided conflicting values.
        all_honest_decided: every honest replica decided every sequence
            (single-view liveness indicator; only meaningful with an honest
            leader/primary).
        messages_sent: total protocol messages handed to the network.
        duration: simulated time at which the run stopped.
        within_fault_bound: whether the Byzantine count respected ``f``.
    """

    protocol: str
    quorum: QuorumSpec
    byzantine_count: int
    safety_ok: bool
    all_honest_decided: bool
    messages_sent: float
    duration: float
    within_fault_bound: bool


def _replica_ids(
    replicas: Union[ReplicaPopulation, Sequence[str]],
) -> Tuple[str, ...]:
    if isinstance(replicas, ReplicaPopulation):
        return replicas.replica_ids()
    ids = tuple(replicas)
    if not ids:
        raise ProtocolError("at least one replica id is required")
    return ids


def run_consensus(
    replicas: Union[ReplicaPopulation, Sequence[str]],
    fault_schedule: Optional[FaultSchedule] = None,
    *,
    protocol: str = "pbft",
    values: Sequence[str] = ("request-0",),
    network_config: Optional[NetworkConfig] = None,
    leader_id: Optional[str] = None,
    tee_compromised_ids: Iterable[str] = (),
    until: float = 10.0,
) -> ConsensusRunResult:
    """Run one consensus instance and summarize the outcome.

    Args:
        replicas: a replica population or a list of replica ids.
        fault_schedule: which replicas misbehave (defaults to none).
        protocol: "pbft", "hotstuff" or "hybrid".
        values: the values proposed (one consensus sequence per value).
        network_config: latency / loss model (defaults to a fast LAN-like one).
        leader_id: primary / leader override (defaults to the first replica).
        tee_compromised_ids: hybrid protocol only — replicas whose trusted
            component has been compromised (e.g. by a trusted-hardware
            vulnerability campaign).
        until: simulated-time horizon of the run.
    """
    if protocol not in SUPPORTED_PROTOCOLS:
        raise ProtocolError(
            f"unknown protocol {protocol!r}; expected one of {SUPPORTED_PROTOCOLS}"
        )
    ids = _replica_ids(replicas)
    schedule = fault_schedule if fault_schedule is not None else FaultSchedule()
    config = network_config if network_config is not None else NetworkConfig()
    byzantine_count = sum(1 for replica_id in ids if schedule.is_faulty_at(replica_id, 0.0))

    if protocol == "pbft":
        run = PbftRun(
            replica_ids=ids,
            fault_schedule=schedule,
            network_config=config,
            primary_id=leader_id,
        )
        result = run.execute(values, until=until)
    elif protocol == "hotstuff":
        run = HotStuffRun(
            replica_ids=ids,
            fault_schedule=schedule,
            network_config=config,
            leader_id=leader_id,
        )
        result = run.execute(values, until=until)
    else:
        run = HybridRun(
            replica_ids=ids,
            fault_schedule=schedule,
            network_config=config,
            primary_id=leader_id,
            tee_compromised_ids=frozenset(tee_compromised_ids),
        )
        result = run.execute(values, until=until)

    return ConsensusRunResult(
        protocol=protocol,
        quorum=result.quorum,
        byzantine_count=byzantine_count,
        safety_ok=result.safety_ok,
        all_honest_decided=result.all_honest_decided,
        messages_sent=result.messages_sent,
        duration=result.duration,
        within_fault_bound=result.quorum.tolerates(byzantine_count),
    )


def fault_bound_for(protocol: str, replica_count: int) -> int:
    """The tolerated fault count ``f`` of ``protocol`` with ``replica_count`` replicas."""
    if protocol not in SUPPORTED_PROTOCOLS:
        raise ProtocolError(
            f"unknown protocol {protocol!r}; expected one of {SUPPORTED_PROTOCOLS}"
        )
    model = QuorumModel.HYBRID if protocol == "hybrid" else QuorumModel.CLASSIC
    return QuorumSpec(total_replicas=replica_count, model=model).fault_bound
