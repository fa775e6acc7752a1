"""Unit tests for repro.core.configuration."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.configuration import (
    ComponentKind,
    ConfigurationSpace,
    ReplicaConfiguration,
    SoftwareComponent,
    default_configuration_space,
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

    def test_with_version_changes_fault_domain(self):
        component = SoftwareComponent(ComponentKind.CRYPTO_LIBRARY, "openssl", "1.0")
        patched = component.with_version("1.1")
        assert patched != component
        assert patched.name == component.name

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

    def test_uses_any(self, linux_alpha_config):
        vulnerable = [SoftwareComponent(ComponentKind.CRYPTO_LIBRARY, "openssl", "1.0")]
        assert linux_alpha_config.uses_any(vulnerable)
        assert not linux_alpha_config.uses_any(
            [SoftwareComponent(ComponentKind.CRYPTO_LIBRARY, "libsodium", "1.0")]
        )

    def test_shared_components(self, linux_alpha_config):
        other = ReplicaConfiguration.from_names(
            operating_system="linux",
            consensus_client="client-beta",
            crypto_library="boringssl",
        )
        shared = linux_alpha_config.shared_components(other)
        assert [component.name for component in shared] == ["linux"]

    def test_difference_count(self, linux_alpha_config, freebsd_beta_config):
        assert linux_alpha_config.difference_count(freebsd_beta_config) == 3
        assert linux_alpha_config.difference_count(linux_alpha_config) == 0

    def test_difference_counts_missing_kinds(self):
        small = ReplicaConfiguration.from_names(operating_system="linux", consensus_client="c")
        bigger = small.replace(SoftwareComponent(ComponentKind.WALLET, "w"))
        assert small.difference_count(bigger) == 1

    def test_replace_creates_new_configuration(self, linux_alpha_config):
        patched = linux_alpha_config.replace(
            SoftwareComponent(ComponentKind.CRYPTO_LIBRARY, "openssl", "1.1")
        )
        assert patched != linux_alpha_config
        assert patched.component(ComponentKind.CRYPTO_LIBRARY).version == "1.1"
        # The original is untouched (immutability).
        assert linux_alpha_config.component(ComponentKind.CRYPTO_LIBRARY).version == "1.0"

    def test_without_removes_kind(self, linux_alpha_config):
        stripped = linux_alpha_config.without(ComponentKind.CRYPTO_LIBRARY)
        assert stripped.component(ComponentKind.CRYPTO_LIBRARY) is None

    def test_without_unknown_kind_raises(self, linux_alpha_config):
        with pytest.raises(ConfigurationError):
            linux_alpha_config.without(ComponentKind.DATABASE)

    def test_iteration_and_len(self, linux_alpha_config):
        assert len(linux_alpha_config) == 3
        assert len(list(linux_alpha_config)) == 3


class TestConfigurationSpace:
    def test_size_is_cross_product(self):
        space = ConfigurationSpace.from_catalog(
            {
                ComponentKind.OPERATING_SYSTEM: ["a", "b"],
                ComponentKind.CONSENSUS_CLIENT: ["x", "y", "z"],
            }
        )
        assert space.size() == 6
        assert len(list(space.enumerate())) == 6

    def test_optional_kind_adds_absent_choice(self):
        space = ConfigurationSpace.from_catalog(
            {
                ComponentKind.OPERATING_SYSTEM: ["a"],
                ComponentKind.TRUSTED_HARDWARE: ["tpm"],
            },
            optional_kinds=[ComponentKind.TRUSTED_HARDWARE],
        )
        assert space.size() == 2

    def test_contains_enumerated_configurations(self):
        space = default_configuration_space()
        first = next(iter(space.enumerate()))
        assert first in space

    def test_does_not_contain_foreign_configuration(self):
        space = default_configuration_space()
        foreign = ReplicaConfiguration.from_names(
            operating_system="plan9", consensus_client="client-alpha"
        )
        assert foreign not in space

    def test_rejects_empty_choices(self):
        with pytest.raises(ConfigurationError):
            ConfigurationSpace.from_catalog({ComponentKind.OPERATING_SYSTEM: []})

    def test_rejects_misfiled_component(self):
        with pytest.raises(ConfigurationError):
            ConfigurationSpace(
                {
                    ComponentKind.OPERATING_SYSTEM: [
                        SoftwareComponent(ComponentKind.WALLET, "w")
                    ]
                }
            )

    def test_rejects_unknown_optional_kind(self):
        with pytest.raises(ConfigurationError):
            ConfigurationSpace.from_catalog(
                {ComponentKind.OPERATING_SYSTEM: ["a"]},
                optional_kinds=[ComponentKind.WALLET],
            )

    def test_default_space_is_reasonably_large(self):
        space = default_configuration_space()
        assert space.size() > 100
