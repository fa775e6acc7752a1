"""The attestation verification service.

Models a unified attestation service (the paper mentions Microsoft Azure
Attestation as an example): it issues nonces, knows which devices exist and
verifies quotes.  Verification checks freshness (nonce), device
registration, signature validity and measurement consistency with the
claimed configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.attestation.device import AttestationDevice
from repro.attestation.quote import AttestationQuote, measure_configuration
from repro.core.configuration import ReplicaConfiguration
from repro.core.exceptions import AttestationError


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one quote.

    Attributes:
        valid: whether the quote passed every check.
        reason: human-readable failure reason (empty when valid).
        attested_configuration: the configuration the quote vouches for (only
            meaningful when valid).
    """

    valid: bool
    reason: str = ""
    attested_configuration: Optional[ReplicaConfiguration] = None


class AttestationVerifier:
    """Registers devices, issues nonces and verifies attestation quotes."""

    def __init__(self) -> None:
        self._devices: Dict[str, AttestationDevice] = {}
        self._issued_nonces: Set[str] = set()
        self._consumed_nonces: Set[str] = set()
        self._nonce_counter = 0

    # -- device management ---------------------------------------------------------

    def register_device(self, device: AttestationDevice) -> None:
        """Register a device so its quotes can be verified."""
        if device.device_id in self._devices:
            raise AttestationError(f"device {device.device_id!r} already registered")
        self._devices[device.device_id] = device

    # -- nonces -----------------------------------------------------------------------

    def issue_nonce(self) -> str:
        """Issue a fresh nonce for a challenge-response attestation."""
        self._nonce_counter += 1
        nonce = hashlib.sha256(f"nonce-{self._nonce_counter}".encode()).hexdigest()[:16]
        self._issued_nonces.add(nonce)
        return nonce

    # -- verification --------------------------------------------------------------------

    def verify(self, quote: AttestationQuote) -> VerificationResult:
        """Verify one quote against the registered devices and policies."""
        device = self._devices.get(quote.device_id)
        if device is None:
            return VerificationResult(False, f"unknown device {quote.device_id!r}")
        if quote.nonce not in self._issued_nonces:
            return VerificationResult(False, "unknown nonce (possible replay)")
        if quote.nonce in self._consumed_nonces:
            return VerificationResult(False, "nonce already used (replay)")
        if not device.signature_valid(quote.body(), quote.signature):
            return VerificationResult(False, "signature does not verify")
        if quote.claimed_configuration is None:
            return VerificationResult(False, "quote carries no configuration claim")
        expected = measure_configuration(quote.claimed_configuration)
        if expected != quote.measurement:
            return VerificationResult(
                False, "measurement does not match the claimed configuration"
            )
        self._consumed_nonces.add(quote.nonce)
        return VerificationResult(True, attested_configuration=quote.claimed_configuration)

    # -- dunder ------------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices
