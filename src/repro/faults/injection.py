"""Fault schedules for protocol simulations.

An exploit campaign (or a hand-written scenario) is turned into a
:class:`FaultSchedule`: a list of :class:`FaultSpec` entries saying *which*
replica misbehaves, *how* (Byzantine or crash) and *from when*.  The BFT
simulators consume the schedule to decide each node's behaviour, so the same
fault description drives both the analytical safety condition and the
end-to-end protocol runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Dict, Iterable, Iterator, Optional

from repro.core.exceptions import FaultModelError
from repro.faults.campaign import CampaignOutcome


@unique
class FaultKind(str, Enum):
    """How a faulty replica misbehaves."""

    BYZANTINE = "byzantine"  # arbitrary behaviour, attacker-controlled
    CRASH = "crash"  # stops participating
    EQUIVOCATE = "equivocate"  # sends conflicting messages (a Byzantine specialization)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class FaultSpec:
    """One replica's fault: kind and activation time.

    Attributes:
        replica_id: the faulty replica.
        kind: how it misbehaves once the fault activates.
        start_time: simulation time from which the fault is active.
        end_time: optional recovery time (proactive recovery / patching);
            ``None`` means the fault persists for the whole run.
        cause: free-text provenance (vulnerability id, "rational", ...).
    """

    replica_id: str
    kind: FaultKind = FaultKind.BYZANTINE
    start_time: float = 0.0
    end_time: Optional[float] = None
    cause: str = ""

    def __post_init__(self) -> None:
        if not self.replica_id:
            raise FaultModelError("fault spec needs a replica id")
        if self.start_time < 0:
            raise FaultModelError(f"start time must be non-negative, got {self.start_time}")
        if self.end_time is not None and self.end_time < self.start_time:
            raise FaultModelError("fault end time cannot precede its start time")

    def is_active_at(self, time: float) -> bool:
        """True when the fault is in effect at ``time``."""
        if time < self.start_time:
            return False
        return self.end_time is None or time < self.end_time


class FaultSchedule:
    """The set of faults injected into one simulation run."""

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self._specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: FaultSpec) -> None:
        """Add a fault; at most one fault spec per replica."""
        if spec.replica_id in self._specs:
            raise FaultModelError(
                f"replica {spec.replica_id!r} already has a fault scheduled"
            )
        self._specs[spec.replica_id] = spec

    def is_faulty_at(self, replica_id: str, time: float) -> bool:
        """True when ``replica_id`` is faulty at ``time``."""
        spec = self._specs.get(replica_id)
        return spec is not None and spec.is_active_at(time)

    def kind_at(self, replica_id: str, time: float) -> Optional[FaultKind]:
        """The active fault kind of ``replica_id`` at ``time`` (``None`` if honest)."""
        spec = self._specs.get(replica_id)
        if spec is None or not spec.is_active_at(time):
            return None
        return spec.kind

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_campaign(
        cls,
        outcome: CampaignOutcome,
        *,
        kind: FaultKind = FaultKind.BYZANTINE,
        start_time: float = 0.0,
        end_time: Optional[float] = None,
    ) -> "FaultSchedule":
        """Every replica the campaign compromised becomes faulty at ``start_time``."""
        cause = ",".join(outcome.exploited)
        return cls(
            FaultSpec(
                replica_id=replica_id,
                kind=kind,
                start_time=start_time,
                end_time=end_time,
                cause=cause,
            )
            for replica_id in sorted(outcome.compromised_replicas)
        )

    # -- dunder -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self._specs.values())

    def __contains__(self, replica_id: str) -> bool:
        return replica_id in self._specs

    def __repr__(self) -> str:
        kinds = {}
        for spec in self._specs.values():
            kinds[spec.kind.value] = kinds.get(spec.kind.value, 0) + 1
        return f"FaultSchedule(faults={len(self)}, kinds={kinds})"
