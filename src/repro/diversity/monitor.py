"""Continuous diversity monitoring with alerting thresholds.

A permissionless system cannot *enforce* diversity, but it can *observe* it
through the attestation registry and raise alarms when the census drifts into
dangerous territory — e.g. when a single configuration's share approaches the
protocol's fault tolerance, which is the precondition for a one-vulnerability
safety violation.  The monitor encodes those checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import AnalysisError
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction


@dataclass(frozen=True)
class DiversityAlert:
    """One triggered alert.

    Attributes:
        code: stable machine-readable alert code.
        message: human-readable description.
        severity: "warning" or "critical".
    """

    code: str
    message: str
    severity: str


@dataclass(frozen=True)
class MonitorThresholds:
    """Alerting thresholds of the diversity monitor.

    Attributes:
        min_entropy_bits: minimum acceptable census entropy.
        max_single_share_factor: maximum tolerated ratio between the largest
            configuration share and the protocol's fault-tolerance fraction
            (1.0 means alerting only once a single configuration can by
            itself violate safety; lower values alert earlier).
        min_support: minimum number of distinct configurations.
    """

    min_entropy_bits: float = 3.0
    max_single_share_factor: float = 0.75
    min_support: int = 4

    def __post_init__(self) -> None:
        if self.min_entropy_bits < 0:
            raise AnalysisError("minimum entropy must be non-negative")
        if not 0 < self.max_single_share_factor <= 1.5:
            raise AnalysisError("single-share factor must be in (0, 1.5]")
        if self.min_support < 1:
            raise AnalysisError("minimum support must be positive")


class DiversityMonitor:
    """Evaluates a configuration census against alerting thresholds."""

    def __init__(
        self,
        *,
        family: ProtocolFamily = ProtocolFamily.BFT,
        thresholds: Optional[MonitorThresholds] = None,
    ) -> None:
        self._family = family
        self._thresholds = thresholds or MonitorThresholds()

    def evaluate(self, census: ConfigurationDistribution) -> Tuple[DiversityAlert, ...]:
        """Check one census snapshot and return the triggered alerts."""
        alerts: List[DiversityAlert] = []
        entropy = census.entropy()

        if entropy < self._thresholds.min_entropy_bits:
            alerts.append(
                DiversityAlert(
                    code="low-entropy",
                    message=(
                        f"census entropy {entropy:.3f} bits is below the "
                        f"minimum of {self._thresholds.min_entropy_bits:.3f} bits"
                    ),
                    severity="warning",
                )
            )

        if census.support_size() < self._thresholds.min_support:
            alerts.append(
                DiversityAlert(
                    code="low-richness",
                    message=(
                        f"only {census.support_size()} distinct configurations are in "
                        f"use (minimum {self._thresholds.min_support})"
                    ),
                    severity="warning",
                )
            )

        tolerance = tolerated_fault_fraction(self._family)
        largest_key, largest_share = census.largest(1)[0]
        if largest_share >= tolerance:
            alerts.append(
                DiversityAlert(
                    code="single-configuration-violation",
                    message=(
                        f"configuration {largest_key!r} holds {largest_share:.1%} of power, "
                        f"at or above the {tolerance:.0%} tolerance of the "
                        f"{self._family.value} protocol family: one shared fault violates safety"
                    ),
                    severity="critical",
                )
            )
        elif largest_share >= tolerance * self._thresholds.max_single_share_factor:
            alerts.append(
                DiversityAlert(
                    code="single-configuration-risk",
                    message=(
                        f"configuration {largest_key!r} holds {largest_share:.1%} of power, "
                        f"within {self._thresholds.max_single_share_factor:.0%} of the "
                        f"{tolerance:.0%} safety threshold"
                    ),
                    severity="warning",
                )
            )

        return tuple(alerts)
