"""Tests for the simulated remote-attestation pipeline (Section III-B)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.attestation.device import AttestationDevice, DeviceType
from repro.attestation.quote import measure_configuration, produce_quote
from repro.attestation.registry import AttestationRegistry
from repro.attestation.verifier import AttestationVerifier
from repro.core.exceptions import AttestationError


@pytest.fixture
def verifier() -> AttestationVerifier:
    return AttestationVerifier()


@pytest.fixture
def device(verifier) -> AttestationDevice:
    device = AttestationDevice("dev-1", DeviceType.SGX)
    verifier.register_device(device)
    return device


def _attest(verifier, device, replica_id, configuration, **kwargs):
    nonce = verifier.issue_nonce()
    return produce_quote(device, replica_id, configuration, nonce, **kwargs)


class TestMeasurementAndQuotes:
    def test_measurement_is_deterministic(self, linux_alpha_config):
        assert measure_configuration(linux_alpha_config) == measure_configuration(
            linux_alpha_config
        )

    def test_different_configurations_have_different_measurements(
        self, linux_alpha_config, freebsd_beta_config
    ):
        assert measure_configuration(linux_alpha_config) != measure_configuration(
            freebsd_beta_config
        )

    def test_valid_quote_verifies(self, verifier, device, linux_alpha_config):
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        result = verifier.verify(quote)
        assert result.valid
        assert result.attested_configuration == linux_alpha_config

    def test_intact_device_refuses_to_lie(self, verifier, device, linux_alpha_config, freebsd_beta_config):
        with pytest.raises(AttestationError):
            _attest(verifier, device, "r1", linux_alpha_config, lie_about=freebsd_beta_config)

    def test_compromised_device_can_lie_and_still_verifies(
        self, verifier, device, linux_alpha_config, freebsd_beta_config
    ):
        device.compromised = True
        quote = _attest(
            verifier, device, "r1", linux_alpha_config, lie_about=freebsd_beta_config
        )
        result = verifier.verify(quote)
        # The verifier cannot tell: this is exactly the TEE-compromise threat.
        assert result.valid
        assert result.attested_configuration == freebsd_beta_config


class TestVerifierPolicies:
    def test_unknown_device_rejected(self, verifier, linux_alpha_config):
        rogue = AttestationDevice("rogue", DeviceType.TPM)
        nonce = verifier.issue_nonce()
        quote = produce_quote(rogue, "r1", linux_alpha_config, nonce)
        assert not verifier.verify(quote).valid

    def test_nonce_replay_rejected(self, verifier, device, linux_alpha_config):
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        assert verifier.verify(quote).valid
        assert not verifier.verify(quote).valid  # same nonce, replay

    def test_unknown_nonce_rejected(self, verifier, device, linux_alpha_config):
        quote = produce_quote(device, "r1", linux_alpha_config, "made-up-nonce")
        result = verifier.verify(quote)
        assert not result.valid
        assert "nonce" in result.reason

    def test_tampered_signature_rejected(self, verifier, device, linux_alpha_config):
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        tampered = type(quote)(
            replica_id=quote.replica_id,
            device_id=quote.device_id,
            measurement=quote.measurement,
            nonce=quote.nonce,
            firmware_version=quote.firmware_version,
            signature="0" * 64,
            claimed_configuration=quote.claimed_configuration,
        )
        assert not verifier.verify(tampered).valid

    def test_duplicate_device_registration_rejected(self, verifier, device):
        with pytest.raises(AttestationError):
            verifier.register_device(AttestationDevice("dev-1"))

    def test_claim_swapped_after_signing_is_caught_by_the_measurement(
        self, verifier, device, linux_alpha_config, freebsd_beta_config
    ):
        # The signature covers the measurement, not the claim carried beside
        # it, so a lying replica with an honest device is caught only by
        # recomputing the measurement of what it claims.
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        swapped = dataclasses.replace(quote, claimed_configuration=freebsd_beta_config)
        result = verifier.verify(swapped)
        assert not result.valid
        assert result.reason == "measurement does not match the claimed configuration"
        assert result.attested_configuration is None

    def test_quote_without_a_configuration_claim_rejected(
        self, verifier, device, linux_alpha_config
    ):
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        result = verifier.verify(dataclasses.replace(quote, claimed_configuration=None))
        assert not result.valid
        assert result.reason == "quote carries no configuration claim"


class TestRegistry:
    def test_attested_and_declared_power(self, verifier, device, linux_alpha_config, freebsd_beta_config):
        registry = AttestationRegistry(verifier)
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        registry.register_attested(quote, power=3.0)
        registry.register_declared("r2", freebsd_beta_config, power=1.0)
        assert registry.attested_power() == pytest.approx(3.0)
        assert registry.declared_power() == pytest.approx(1.0)
        assert registry.attested_fraction() == pytest.approx(0.75)
        assert len(registry) == 2

    def test_census_weighting(self, verifier, device, linux_alpha_config, freebsd_beta_config):
        registry = AttestationRegistry(verifier)
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        registry.register_attested(quote, power=1.0)
        registry.register_declared("r2", freebsd_beta_config, power=1.0)
        boosted = registry.census(attested_weight=3.0, declared_weight=1.0)
        assert boosted.shares()[linux_alpha_config] == pytest.approx(0.75)
        attested_only = registry.census(attested_only=True)
        assert attested_only.support_size() == 1

    def test_bad_quote_not_registered(self, verifier, linux_alpha_config):
        registry = AttestationRegistry(verifier)
        rogue = AttestationDevice("rogue")
        quote = produce_quote(rogue, "r1", linux_alpha_config, "nonce")
        with pytest.raises(AttestationError):
            registry.register_attested(quote)
        assert "r1" not in registry
