"""The Section II-C safety condition and resilience analysis.

Safety requires that at every time ``t`` the total Byzantine voting power does
not exceed the protocol's tolerance: ``f >= sum_i f_t^i`` where ``f_t^i`` is
the voting power compromised through the i-th vulnerability.  This module
provides:

- :func:`tolerated_fault_fraction` — the fraction of voting power a protocol
  family tolerates (1/3 for classic BFT with n = 3f+1, 1/2 for hybrid
  protocols with trusted components and for Nakamoto consensus under the
  honest-majority assumption);
- :class:`SafetyCondition` — the inequality itself, evaluated against a set of
  per-vulnerability compromised powers;
- :class:`ResilienceReport` — a bundled verdict used by experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, Mapping, Optional, Tuple

from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation

#: Numerical slack applied when comparing fractions of voting power.
FRACTION_TOLERANCE = 1e-9


@unique
class ProtocolFamily(str, Enum):
    """Protocol families with their standard fault-tolerance bounds."""

    BFT = "bft"  # n = 3f + 1 (PBFT, HotStuff, Tendermint, ...)
    HYBRID = "hybrid"  # n = 2f + 1 with trusted components (Damysus, MinBFT)
    CRASH = "crash"  # n = 2f + 1 crash-fault tolerant (Paxos/Raft)
    NAKAMOTO = "nakamoto"  # honest-majority hash power

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def tolerated_fault_fraction(family: ProtocolFamily) -> float:
    """The fraction of total voting power a protocol family tolerates.

    The value is the strict upper bound: the adversary must control strictly
    less than this fraction for safety (and, for Nakamoto, for the common
    honest-majority argument to apply).
    """
    if family is ProtocolFamily.BFT:
        return 1.0 / 3.0
    if family in (ProtocolFamily.HYBRID, ProtocolFamily.CRASH, ProtocolFamily.NAKAMOTO):
        return 1.0 / 2.0
    raise FaultModelError(f"unknown protocol family {family!r}")


@dataclass(frozen=True)
class SafetyCondition:
    """The Section II-C condition ``f >= sum_i f_t^i`` in voting-power units.

    Attributes:
        tolerated_power: the protocol's tolerance ``f`` expressed in absolute
            voting-power units (e.g. ``f`` replicas, or 49.999...% of hash
            power).
        total_power: the system's total voting power ``n_t``.
    """

    tolerated_power: float
    total_power: float

    def __post_init__(self) -> None:
        if self.total_power <= 0:
            raise FaultModelError(f"total power must be positive, got {self.total_power}")
        if self.tolerated_power < 0:
            raise FaultModelError(
                f"tolerated power must be non-negative, got {self.tolerated_power}"
            )

    @classmethod
    def for_family(
        cls, family: ProtocolFamily, total_power: float
    ) -> "SafetyCondition":
        """Build the condition for a protocol family given total power.

        The tolerated power is an *open* bound (e.g. strictly less than one
        third of the power for BFT); :meth:`is_safe` therefore uses a strict
        comparison.
        """
        fraction = tolerated_fault_fraction(family)
        return cls(tolerated_power=fraction * total_power, total_power=total_power)

    def compromised_power(self, per_vulnerability_power: Iterable[float]) -> float:
        """``sum_i f_t^i`` — total power compromised across vulnerabilities."""
        total = 0.0
        for power in per_vulnerability_power:
            if power < 0:
                raise FaultModelError(f"compromised power must be non-negative, got {power}")
            total += power
        return total

    def is_safe(self, per_vulnerability_power: Iterable[float]) -> bool:
        """True when the compromised power respects the tolerance.

        The bound is open and equality is unsafe, which is the conservative
        reading of "strictly less than one third / one half of the power".
        """
        compromised = self.compromised_power(per_vulnerability_power)
        return compromised < self.tolerated_power - FRACTION_TOLERANCE


@dataclass(frozen=True)
class ResilienceReport:
    """Verdict of a resilience analysis against a concrete fault scenario.

    Attributes:
        family: the protocol family analysed.
        total_power: total voting power ``n_t``.
        tolerated_power: the tolerance ``f`` in power units.
        compromised_power: total power the scenario compromises.
        compromised_fraction: the same as a fraction of total power.
        safe: whether the Section II-C condition holds.
        per_vulnerability: power compromised by each vulnerability considered.
    """

    family: ProtocolFamily
    total_power: float
    tolerated_power: float
    compromised_power: float
    compromised_fraction: float
    safe: bool
    per_vulnerability: Tuple[Tuple[str, float], ...]


def analyze_resilience(
    population: ReplicaPopulation,
    compromised_power_by_vulnerability: Mapping[str, float],
    *,
    family: ProtocolFamily = ProtocolFamily.BFT,
    total_power: Optional[float] = None,
) -> ResilienceReport:
    """Evaluate the safety condition for a population under a fault scenario.

    Args:
        population: the replica population under analysis.
        compromised_power_by_vulnerability: voting power ``f_t^i`` compromised
            by each vulnerability (already resolved against the population —
            see :mod:`repro.faults.campaign` for deriving these numbers from a
            vulnerability catalog).
        family: the protocol family whose tolerance applies.
        total_power: override for ``n_t``; defaults to the population's total.
    """
    total = population.total_power() if total_power is None else float(total_power)
    if total <= 0:
        raise FaultModelError(f"total power must be positive, got {total}")
    condition = SafetyCondition.for_family(family, total)
    per_vulnerability = tuple(sorted(compromised_power_by_vulnerability.items()))
    compromised = condition.compromised_power(
        power for _, power in per_vulnerability
    )
    return ResilienceReport(
        family=family,
        total_power=total,
        tolerated_power=condition.tolerated_power,
        compromised_power=compromised,
        compromised_fraction=compromised / total,
        safe=condition.is_safe(power for _, power in per_vulnerability),
        per_vulnerability=per_vulnerability,
    )
