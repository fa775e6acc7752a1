"""Replicated ledgers and agreement checking.

Each simulated replica appends the values it *commits* (decides) to its own
:class:`ReplicatedLedger`.  After a run, :func:`check_agreement` compares the
ledgers of the honest replicas: safety holds iff no two honest replicas
committed different values at the same sequence number.  This is the concrete
observable the end-to-end experiments use to demonstrate the Section II-C
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.core.exceptions import ProtocolError


@dataclass
class ReplicatedLedger:
    """The committed log of one replica."""

    owner_id: str
    _entries: Dict[int, str] = field(default_factory=dict)

    def commit(self, sequence: int, value: str) -> None:
        """Record the decision ``value`` at ``sequence``.

        Committing the same value twice is a no-op; committing a *different*
        value at an already-decided sequence is a local invariant violation
        and raises immediately (an honest replica never does this; the
        simulator's Byzantine replicas simply do not maintain honest ledgers).
        """
        if sequence < 0:
            raise ProtocolError(f"sequence must be non-negative, got {sequence}")
        if not value:
            raise ProtocolError("committed value must not be empty")
        existing = self._entries.get(sequence)
        if existing is not None and existing != value:
            raise ProtocolError(
                f"replica {self.owner_id!r} would overwrite sequence {sequence}: "
                f"{existing!r} -> {value!r}"
            )
        if existing is None:
            self._entries[sequence] = value

    def entries(self) -> Dict[int, str]:
        """A copy of the committed log."""
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sequence: int) -> bool:
        return sequence in self._entries


@dataclass(frozen=True)
class AgreementReport:
    """Result of comparing the honest replicas' ledgers after a run.

    Attributes:
        safe: no two honest replicas decided differently at any sequence.
        conflicts: per-sequence mapping of the conflicting values observed
            (empty when safe).
        decided_sequences: sequences decided by at least one honest replica.
        fully_replicated_sequences: sequences decided by *every* honest
            replica (used as a liveness indicator for the single-shot runs).
    """

    safe: bool
    conflicts: Tuple[Tuple[int, Tuple[str, ...]], ...]
    decided_sequences: Tuple[int, ...]
    fully_replicated_sequences: Tuple[int, ...]


def check_agreement(
    ledgers: Mapping[str, ReplicatedLedger],
    *,
    honest_ids: Optional[Iterable[str]] = None,
) -> AgreementReport:
    """Compare ledgers and report safety.

    Args:
        ledgers: mapping replica id -> its ledger.
        honest_ids: the replicas whose ledgers count (defaults to all).
            Byzantine replicas' ledgers are irrelevant to safety.
    """
    if not ledgers:
        raise ProtocolError("at least one ledger is required")
    ids = list(honest_ids) if honest_ids is not None else list(ledgers)
    unknown = [replica_id for replica_id in ids if replica_id not in ledgers]
    if unknown:
        raise ProtocolError(f"no ledger recorded for replicas {unknown!r}")
    per_sequence: Dict[int, Dict[str, int]] = {}
    for replica_id in ids:
        for sequence, value in ledgers[replica_id].entries().items():
            per_sequence.setdefault(sequence, {})
            per_sequence[sequence][value] = per_sequence[sequence].get(value, 0) + 1
    conflicts = []
    fully_replicated = []
    for sequence in sorted(per_sequence):
        values = per_sequence[sequence]
        if len(values) > 1:
            conflicts.append((sequence, tuple(sorted(values))))
        if sum(values.values()) == len(ids) and len(values) == 1:
            fully_replicated.append(sequence)
    return AgreementReport(
        safe=not conflicts,
        conflicts=tuple(conflicts),
        decided_sequences=tuple(sorted(per_sequence)),
        fully_replicated_sequences=tuple(fully_replicated),
    )
