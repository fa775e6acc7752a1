"""Quorum arithmetic for classic and hybrid BFT protocols.

Classic BFT protocols need ``n = 3f + 1`` replicas to tolerate ``f`` Byzantine
faults and use quorums of ``2f + 1``; hybrid protocols that rely on trusted
components to prevent equivocation (Damysus, MinBFT) need only ``n = 2f + 1``
replicas and quorums of ``f + 1``.  The resilience comparison between the two
is part of the paper's motivation for caring about trusted-hardware diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from repro.core.exceptions import ProtocolError


@unique
class QuorumModel(str, Enum):
    """Which replica/quorum arithmetic applies."""

    CLASSIC = "classic"  # n = 3f + 1, quorum 2f + 1
    HYBRID = "hybrid"  # n = 2f + 1, quorum f + 1 (trusted components)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class QuorumSpec:
    """Replica count, fault bound and quorum size for one deployment."""

    total_replicas: int
    model: QuorumModel = QuorumModel.CLASSIC

    def __post_init__(self) -> None:
        if self.total_replicas < 1:
            raise ProtocolError(
                f"total replicas must be positive, got {self.total_replicas}"
            )
        minimum = 4 if self.model is QuorumModel.CLASSIC else 3
        if self.total_replicas < minimum:
            raise ProtocolError(
                f"{self.model.value} BFT needs at least {minimum} replicas, "
                f"got {self.total_replicas}"
            )

    @property
    def fault_bound(self) -> int:
        """``f`` — the number of tolerated Byzantine replicas."""
        if self.model is QuorumModel.CLASSIC:
            return (self.total_replicas - 1) // 3
        return (self.total_replicas - 1) // 2

    @property
    def quorum_size(self) -> int:
        """Votes needed to make progress while guaranteeing safety.

        The general formula is ``n - f``: it is the largest quorum that stays
        live with ``f`` silent replicas, and it guarantees the required quorum
        intersection (``f + 1`` replicas for the classic model, at least one
        replica for the hybrid model) for *any* ``n``, not only the exact
        ``3f + 1`` / ``2f + 1`` deployments.  For exact deployments it reduces
        to the familiar ``2f + 1`` (classic) and ``f + 1`` (hybrid).
        """
        return self.total_replicas - self.fault_bound

    def tolerates(self, byzantine_count: int) -> bool:
        """True when ``byzantine_count`` Byzantine replicas cannot break safety."""
        if byzantine_count < 0:
            raise ProtocolError(
                f"byzantine count must be non-negative, got {byzantine_count}"
            )
        return byzantine_count <= self.fault_bound

    def __str__(self) -> str:
        return (
            f"QuorumSpec(n={self.total_replicas}, f={self.fault_bound}, "
            f"quorum={self.quorum_size}, model={self.model.value})"
        )
