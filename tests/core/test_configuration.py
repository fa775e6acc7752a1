"""Unit tests for repro.core.configuration."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.configuration import (
    ComponentKind,
    ReplicaConfiguration,
    SoftwareComponent,
)
from repro.core.exceptions import ConfigurationError


class TestSoftwareComponent:
    def test_identifier_format(self):
        component = SoftwareComponent(ComponentKind.OPERATING_SYSTEM, "linux", "6.1")
        assert component.identifier == "operating_system:linux:6.1"

    def test_identifier_is_stored_on_first_read_and_is_no_field(self):
        component = SoftwareComponent(ComponentKind.OPERATING_SYSTEM, "linux", "6.1")
        twin = SoftwareComponent(ComponentKind.OPERATING_SYSTEM, "linux", "6.1")
        other = SoftwareComponent(ComponentKind.OPERATING_SYSTEM, "linuz", "6.1")
        assert "identifier" not in vars(component)
        first = component.identifier
        assert vars(component)["identifier"] == first
        assert component.identifier is first
        # Reading it changes nothing a field decides: equality, hashing,
        # ordering, asdict and a pickle round trip.
        assert component == twin and hash(component) == hash(twin)
        assert sorted([other, component]) == sorted([other, twin]) == [component, other]
        assert dataclasses.asdict(component) == dataclasses.asdict(twin) == {
            "kind": ComponentKind.OPERATING_SYSTEM,
            "name": "linux",
            "version": "6.1",
        }
        assert "identifier" not in {f.name for f in dataclasses.fields(component)}
        restored = pickle.loads(pickle.dumps(component))
        assert restored == twin and hash(restored) == hash(twin)
        assert restored.identifier == twin.identifier == first

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            SoftwareComponent(ComponentKind.WALLET, "", "1.0")

    def test_rejects_empty_version(self):
        with pytest.raises(ConfigurationError):
            SoftwareComponent(ComponentKind.WALLET, "wallet", "")

    def test_components_are_ordered(self):
        a = SoftwareComponent(ComponentKind.WALLET, "a")
        b = SoftwareComponent(ComponentKind.WALLET, "b")
        assert sorted([b, a]) == [a, b]


class TestReplicaConfiguration:
    def test_from_names_builds_expected_components(self):
        config = ReplicaConfiguration.from_names(
            operating_system="linux",
            consensus_client="client-alpha",
            trusted_hardware="intel-sgx",
        )
        assert config.component(ComponentKind.OPERATING_SYSTEM).name == "linux"
        assert config.component(ComponentKind.TRUSTED_HARDWARE).name == "intel-sgx"
        assert config.component(ComponentKind.WALLET) is None

    def test_equality_and_hash_by_value(self):
        a = ReplicaConfiguration.from_names(operating_system="linux", consensus_client="c")
        b = ReplicaConfiguration.from_names(operating_system="linux", consensus_client="c")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_labeled_configurations_are_distinct(self):
        assert ReplicaConfiguration.labeled("x") != ReplicaConfiguration.labeled("y")

    def test_rejects_duplicate_kind(self):
        with pytest.raises(ConfigurationError):
            ReplicaConfiguration(
                [
                    SoftwareComponent(ComponentKind.WALLET, "a"),
                    SoftwareComponent(ComponentKind.WALLET, "b"),
                ]
            )

    def test_rejects_empty_configuration(self):
        with pytest.raises(ConfigurationError):
            ReplicaConfiguration([])

    def test_has_component_matches_exact_version(self):
        config = ReplicaConfiguration.from_names(
            operating_system="linux", consensus_client="c", version="2.0"
        )
        assert config.has_component(
            SoftwareComponent(ComponentKind.OPERATING_SYSTEM, "linux", "2.0")
        )
        assert not config.has_component(
            SoftwareComponent(ComponentKind.OPERATING_SYSTEM, "linux", "2.1")
        )

    def test_iteration_and_len(self, linux_alpha_config):
        assert len(linux_alpha_config) == 3
        assert len(list(linux_alpha_config)) == 3
