"""The configuration-discovery registry (Challenge 1 of the paper).

The registry is the end product of Section III-B: a continuously-updated view
of which configurations hold how much voting power, built from verified
attestation quotes.  It distinguishes *attested* power (backed by a verified
quote) from *declared* power (self-reported, untrusted), which is exactly the
two-class structure the paper's conclusion proposes, and it exposes the
census the entropy analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.attestation.quote import AttestationQuote
from repro.attestation.verifier import AttestationVerifier
from repro.core.configuration import ReplicaConfiguration
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import AttestationError


@dataclass(frozen=True)
class RegistryEntry:
    """One replica's entry in the discovery registry."""

    replica_id: str
    configuration: ReplicaConfiguration
    power: float
    attested: bool


class AttestationRegistry:
    """Tracks attested and declared replica configurations with their power."""

    def __init__(self, verifier: Optional[AttestationVerifier] = None) -> None:
        # "is None" rather than "or": an empty verifier is falsy (it defines
        # __len__) but is still the verifier the caller wants to share.
        self._verifier = verifier if verifier is not None else AttestationVerifier()
        self._entries: Dict[str, RegistryEntry] = {}

    # -- registration -----------------------------------------------------------------

    def register_attested(self, quote: AttestationQuote, *, power: float = 1.0) -> RegistryEntry:
        """Verify ``quote`` and record the replica as attested.

        Raises :class:`AttestationError` when the quote does not verify.
        """
        if power < 0:
            raise AttestationError(f"power must be non-negative, got {power}")
        result = self._verifier.verify(quote)
        if not result.valid:
            raise AttestationError(f"attestation failed: {result.reason}")
        assert result.attested_configuration is not None
        entry = RegistryEntry(
            replica_id=quote.replica_id,
            configuration=result.attested_configuration,
            power=power,
            attested=True,
        )
        self._entries[quote.replica_id] = entry
        return entry

    def register_declared(
        self,
        replica_id: str,
        configuration: ReplicaConfiguration,
        *,
        power: float = 1.0,
    ) -> RegistryEntry:
        """Record a self-declared (unattested) configuration."""
        if not replica_id:
            raise AttestationError("replica id must not be empty")
        if power < 0:
            raise AttestationError(f"power must be non-negative, got {power}")
        entry = RegistryEntry(
            replica_id=replica_id,
            configuration=configuration,
            power=power,
            attested=False,
        )
        self._entries[replica_id] = entry
        return entry

    # -- queries --------------------------------------------------------------------------

    def attested_power(self) -> float:
        """Total power backed by verified attestations."""
        return sum(entry.power for entry in self._entries.values() if entry.attested)

    def declared_power(self) -> float:
        """Total power that is only self-declared."""
        return sum(entry.power for entry in self._entries.values() if not entry.attested)

    def attested_fraction(self) -> float:
        """Fraction of total registered power that is attested."""
        total = self.attested_power() + self.declared_power()
        if total <= 0:
            return 0.0
        return self.attested_power() / total

    def census(
        self,
        *,
        attested_only: bool = False,
        attested_weight: float = 1.0,
        declared_weight: float = 1.0,
    ) -> ConfigurationDistribution:
        """The configuration distribution implied by the registry.

        Args:
            attested_only: ignore self-declared entries entirely.
            attested_weight: voting-weight multiplier for attested power.
            declared_weight: voting-weight multiplier for declared power;
                setting this below ``attested_weight`` implements the paper's
                concluding proposal of giving attested replicas more weight.
        """
        if attested_weight < 0 or declared_weight < 0:
            raise AttestationError("weights must be non-negative")
        weights: Dict[ReplicaConfiguration, float] = {}
        for entry in self._entries.values():
            if attested_only and not entry.attested:
                continue
            factor = attested_weight if entry.attested else declared_weight
            if entry.power * factor <= 0:
                continue
            weights[entry.configuration] = (
                weights.get(entry.configuration, 0.0) + entry.power * factor
            )
        if not weights:
            raise AttestationError("the registry census is empty")
        return ConfigurationDistribution(weights)

    # -- dunder -------------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, replica_id: str) -> bool:
        return replica_id in self._entries
