"""Simulated remote attestation (Section III-B).

The paper proposes discovering replica configurations through remote
attestation backed by trusted hardware (TPMs / TEEs).  This subpackage
reproduces that discovery path, which the ``attestation_coverage``
experiment and the attestation-weighted diversity policy use.

Real trusted hardware is obviously not available to a pure-Python
reproduction, so this subpackage *simulates* it: devices
measure the replica's declared software stack deterministically, quotes are
"signed" with simulated keys, and a compromised device can be instructed to
lie — which is exactly the failure mode the paper worries about.

- :mod:`repro.attestation.device` -- simulated TPM / TEE devices and keys.
- :mod:`repro.attestation.quote` -- measurements and attestation quotes.
- :mod:`repro.attestation.verifier` -- the attestation verification service.
- :mod:`repro.attestation.registry` -- the configuration-discovery registry
  that feeds the diversity analysis.
"""

from repro.attestation.device import AttestationDevice, DeviceType
from repro.attestation.quote import AttestationQuote, measure_configuration
from repro.attestation.registry import AttestationRegistry
from repro.attestation.verifier import AttestationVerifier, VerificationResult

__all__ = [
    "AttestationDevice",
    "AttestationQuote",
    "AttestationRegistry",
    "AttestationVerifier",
    "DeviceType",
    "VerificationResult",
    "measure_configuration",
]
