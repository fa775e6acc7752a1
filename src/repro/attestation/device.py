"""Simulated trusted devices (TPMs and TEEs) and their attestation keys.

A device holds an attestation key pair (simulated as an HMAC secret), is
registered with a manufacturer "certificate" (a namespace the verifier
trusts) and produces signed quotes over measurements.  A *compromised* device
signs whatever it is told — modeling the SGX-style attacks the paper cites —
and a *revoked* device is one the verifier no longer trusts.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from enum import Enum, unique

from repro.core.exceptions import AttestationError


@unique
class DeviceType(str, Enum):
    """Families of trusted hardware the paper lists in Section III-B."""

    TPM = "tpm"
    SGX = "sgx"
    TRUSTZONE = "trustzone"
    AMD_PSP = "amd-psp"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def _derive_secret(device_id: str, manufacturer_secret: str) -> bytes:
    """Deterministically derive a device's signing secret (simulated EK/AIK)."""
    material = f"{manufacturer_secret}:{device_id}".encode()
    return hashlib.sha256(material).digest()


@dataclass
class AttestationDevice:
    """One simulated trusted device attached to a replica.

    Attributes:
        device_id: unique identifier (e.g. ``"tpm-replica-7"``).
        device_type: TPM / SGX / TrustZone / AMD PSP.
        manufacturer_secret: the manufacturer key namespace the verifier
            trusts; devices derived from an unknown namespace fail
            verification.
        compromised: when true, the device signs arbitrary claims (the
            attacker fully controls it).
        firmware_version: included in quotes so trusted-hardware
            vulnerabilities can target specific firmware versions.
    """

    device_id: str
    device_type: DeviceType = DeviceType.TPM
    manufacturer_secret: str = "trusted-manufacturer"
    compromised: bool = False
    firmware_version: str = "1.0"
    _secret: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.device_id:
            raise AttestationError("device id must not be empty")
        self._secret = _derive_secret(self.device_id, self.manufacturer_secret)

    def sign(self, payload: str) -> str:
        """Produce the device's signature (HMAC) over ``payload``."""
        return hmac.new(self._secret, payload.encode(), hashlib.sha256).hexdigest()

    def signature_valid(self, payload: str, signature: str) -> bool:
        """Check a signature allegedly produced by this device."""
        return hmac.compare_digest(self.sign(payload), signature)

    def __str__(self) -> str:
        return f"{self.device_type.value}:{self.device_id}"
