"""Tests for the simulated remote-attestation pipeline (Section III-B, Remark 3)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.attestation.binding import BoundVote, VoteKeyBinder, derive_vote_key, sign_vote
from repro.attestation.device import AttestationDevice, DeviceType
from repro.attestation.privacy import (
    PrivateCensusAggregator,
    commit_configuration,
    open_commitment,
)
from repro.attestation.quote import measure_configuration, produce_quote
from repro.attestation.registry import AttestationRegistry
from repro.attestation.verifier import AttestationVerifier
from repro.core.configuration import ReplicaConfiguration
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
        device.compromise()
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

    def test_revoked_device_rejected(self, verifier, device, linux_alpha_config):
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        verifier.revoke_device(device.device_id)
        assert not verifier.verify(quote).valid
        assert verifier.is_revoked(device.device_id)

    def test_untrusted_firmware_rejected(self, verifier, linux_alpha_config):
        device = AttestationDevice("dev-fw", DeviceType.SGX, firmware_version="2.17")
        verifier.register_device(device)
        verifier.distrust_firmware("2.17")
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        result = verifier.verify(quote)
        assert not result.valid
        assert "firmware" in result.reason

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

    def test_revoking_an_unknown_device_is_an_error(self, verifier):
        with pytest.raises(AttestationError, match="unknown device"):
            verifier.revoke_device("never-registered")

    def test_distrusting_an_empty_firmware_version_is_an_error(self, verifier):
        with pytest.raises(AttestationError, match="firmware version"):
            verifier.distrust_firmware("")


class TestVoteKeyBinding:
    def test_bind_and_verify_vote(self, verifier, device, linux_alpha_config):
        binder = VoteKeyBinder(verifier)
        key = derive_vote_key("r1", "seed")
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        attested = binder.bind(quote, key)
        assert attested == linux_alpha_config
        vote = binder.cast_vote("r1", key, "ballot-A")
        assert binder.verify_vote(vote)
        assert binder.configuration_of("r1") == linux_alpha_config

    def test_vote_with_wrong_key_rejected(self, verifier, device, linux_alpha_config):
        binder = VoteKeyBinder(verifier)
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        binder.bind(quote, derive_vote_key("r1", "seed"))
        forged = BoundVote(
            replica_id="r1",
            ballot="ballot-A",
            signature=sign_vote(derive_vote_key("r1", "other-seed"), "ballot-A"),
        )
        assert not binder.verify_vote(forged)

    def test_unbound_replica_vote_rejected(self, verifier):
        binder = VoteKeyBinder(verifier)
        vote = BoundVote("ghost", "ballot", "sig")
        assert not binder.verify_vote(vote)
        with pytest.raises(AttestationError):
            binder.cast_vote("ghost", "key", "ballot")

    def test_bind_fails_on_bad_quote(self, verifier, linux_alpha_config):
        binder = VoteKeyBinder(verifier)
        rogue = AttestationDevice("rogue")
        quote = produce_quote(rogue, "r1", linux_alpha_config, "bad-nonce")
        with pytest.raises(AttestationError):
            binder.bind(quote, "key")

    def test_attested_weight(self, verifier, device, linux_alpha_config):
        binder = VoteKeyBinder(verifier)
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        binder.bind(quote, "key")
        assert binder.attested_weight({"r1": 5.0, "r2": 3.0}) == pytest.approx(5.0)


class TestPrivacy:
    def test_commitment_opens_correctly(self, linux_alpha_config):
        commitment, blinding = commit_configuration("r1", linux_alpha_config)
        assert open_commitment(commitment, linux_alpha_config, blinding)

    def test_commitment_is_binding(self, linux_alpha_config, freebsd_beta_config):
        commitment, blinding = commit_configuration("r1", linux_alpha_config)
        assert not open_commitment(commitment, freebsd_beta_config, blinding)
        assert not open_commitment(commitment, linux_alpha_config, "wrong-blinding")

    def test_commitment_is_hiding(self, linux_alpha_config):
        first, _ = commit_configuration("r1", linux_alpha_config, blinding="salt-1")
        second, _ = commit_configuration("r1", linux_alpha_config, blinding="salt-2")
        assert first.digest != second.digest

    def test_private_census(self, linux_alpha_config, freebsd_beta_config):
        aggregator = PrivateCensusAggregator()
        for replica_id, config, weight in (
            ("r1", linux_alpha_config, 2.0),
            ("r2", linux_alpha_config, 1.0),
            ("r3", freebsd_beta_config, 1.0),
        ):
            commitment, blinding = commit_configuration(replica_id, config)
            aggregator.submit_commitment(commitment, weight=weight)
            aggregator.reveal(replica_id, config, blinding)
        census = aggregator.census()
        assert census.support_size() == 2
        assert census.share(linux_alpha_config) == pytest.approx(0.75)
        assert aggregator.revealed_fraction() == pytest.approx(1.0)

    def test_bad_reveal_rejected(self, linux_alpha_config, freebsd_beta_config):
        aggregator = PrivateCensusAggregator()
        commitment, blinding = commit_configuration("r1", linux_alpha_config)
        aggregator.submit_commitment(commitment)
        with pytest.raises(AttestationError):
            aggregator.reveal("r1", freebsd_beta_config, blinding)

    def test_census_requires_openings(self):
        with pytest.raises(AttestationError):
            PrivateCensusAggregator().census()

    def test_a_replica_commits_only_once(self, linux_alpha_config, freebsd_beta_config):
        aggregator = PrivateCensusAggregator()
        first, blinding = commit_configuration("r1", linux_alpha_config)
        aggregator.submit_commitment(first)
        second, _ = commit_configuration("r1", freebsd_beta_config)
        with pytest.raises(AttestationError, match="already submitted"):
            aggregator.submit_commitment(second)
        aggregator.reveal("r1", linux_alpha_config, blinding)
        assert aggregator.census().share(linux_alpha_config) == pytest.approx(1.0)

    def test_reveal_without_a_commitment_rejected(self, linux_alpha_config):
        with pytest.raises(AttestationError, match="submitted no commitment"):
            PrivateCensusAggregator().reveal("r1", linux_alpha_config, "salt")

    def test_negative_weight_rejected(self, linux_alpha_config):
        commitment, _ = commit_configuration("r1", linux_alpha_config)
        aggregator = PrivateCensusAggregator()
        with pytest.raises(AttestationError, match="weight must be non-negative"):
            aggregator.submit_commitment(commitment, weight=-1.0)
        assert len(aggregator) == 0

    def test_revealed_fraction_counts_opened_commitments(
        self, linux_alpha_config, freebsd_beta_config
    ):
        aggregator = PrivateCensusAggregator()
        assert aggregator.revealed_fraction() == 0.0
        first, blinding = commit_configuration("r1", linux_alpha_config)
        second, _ = commit_configuration("r2", freebsd_beta_config)
        aggregator.submit_commitment(first)
        aggregator.submit_commitment(second)
        aggregator.reveal("r1", linux_alpha_config, blinding)
        assert aggregator.revealed_fraction() == pytest.approx(0.5)


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
        assert boosted.share(linux_alpha_config) == pytest.approx(0.75)
        attested_only = registry.census(attested_only=True)
        assert attested_only.support_size() == 1

    def test_registry_to_population(self, verifier, device, linux_alpha_config):
        registry = AttestationRegistry(verifier)
        quote = _attest(verifier, device, "r1", linux_alpha_config)
        registry.register_attested(quote, power=2.0)
        population = registry.to_population()
        assert population.total_power() == pytest.approx(2.0)
        assert population.get("r1").attested

    def test_bad_quote_not_registered(self, verifier, linux_alpha_config):
        registry = AttestationRegistry(verifier)
        rogue = AttestationDevice("rogue")
        quote = produce_quote(rogue, "r1", linux_alpha_config, "nonce")
        with pytest.raises(AttestationError):
            registry.register_attested(quote)
        assert "r1" not in registry

    def test_remove(self, verifier, device, linux_alpha_config):
        registry = AttestationRegistry(verifier)
        registry.register_declared("r9", linux_alpha_config)
        registry.remove("r9")
        assert "r9" not in registry
        with pytest.raises(AttestationError):
            registry.remove("r9")
