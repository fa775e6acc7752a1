"""Tests for the component-level diversity decomposition."""

from __future__ import annotations

import inspect

import pytest

from repro.analysis.components import (
    ABSENT,
    _weighted_bincount,
    component_census,
    component_entropy_profile,
    diversification_priority,
    exposure_by_component,
    weakest_component,
)
from repro.core.configuration import ComponentKind, ReplicaConfiguration
from repro.core.exceptions import AnalysisError
from repro.core.population import Replica, ReplicaPopulation
from repro.core.resilience import ProtocolFamily
from repro.experiments.component_exposure import exposure_table, run_component_exposure


@pytest.fixture
def mixed_population(linux_alpha_config, freebsd_beta_config) -> ReplicaPopulation:
    """Six replicas: the OS slot is diverse, the client slot is a monoculture."""
    shared_client_on_freebsd = ReplicaConfiguration.from_names(
        operating_system="freebsd",
        consensus_client="client-alpha",
        crypto_library="libsodium",
    )
    replicas = [
        Replica("a0", linux_alpha_config),
        Replica("a1", linux_alpha_config),
        Replica("a2", linux_alpha_config),
        Replica("b0", shared_client_on_freebsd),
        Replica("b1", shared_client_on_freebsd),
        Replica("c0", freebsd_beta_config),
    ]
    return ReplicaPopulation(replicas)


class TestComponentCensus:
    def test_census_over_operating_systems(self, mixed_population):
        census = component_census(mixed_population, ComponentKind.OPERATING_SYSTEM)
        assert census.share("operating_system:linux:1.0") == pytest.approx(0.5)
        assert census.share("operating_system:freebsd:1.0") == pytest.approx(0.5)

    def test_census_over_clients_shows_monoculture(self, mixed_population):
        census = component_census(mixed_population, ComponentKind.CONSENSUS_CLIENT)
        assert census.share("consensus_client:client-alpha:1.0") == pytest.approx(5 / 6)

    def test_absent_kind_is_its_own_bucket(self, small_population):
        census = component_census(small_population, ComponentKind.WALLET)
        assert census.share(ABSENT) == pytest.approx(1.0)

    def test_power_weighting(self, mixed_population):
        mixed_population.set_power("c0", 6.0)
        weighted = component_census(mixed_population, ComponentKind.OPERATING_SYSTEM)
        counted = component_census(
            mixed_population, ComponentKind.OPERATING_SYSTEM, weight_by_power=False
        )
        assert weighted.share("operating_system:freebsd:1.0") > counted.share(
            "operating_system:freebsd:1.0"
        )

    def test_empty_population_rejected(self):
        with pytest.raises(AnalysisError):
            component_census(ReplicaPopulation(), ComponentKind.WALLET)


class TestProfilesAndPriorities:
    def test_profile_covers_all_kinds(self, mixed_population):
        profiles = component_entropy_profile(mixed_population)
        kinds = {profile.kind for profile in profiles}
        assert ComponentKind.OPERATING_SYSTEM in kinds
        assert ComponentKind.CONSENSUS_CLIENT in kinds
        assert ComponentKind.CRYPTO_LIBRARY in kinds

    def test_monoculture_slot_is_flagged(self, mixed_population):
        profiles = {p.kind: p for p in component_entropy_profile(mixed_population)}
        client = profiles[ComponentKind.CONSENSUS_CLIENT]
        os_profile = profiles[ComponentKind.OPERATING_SYSTEM]
        assert client.single_fault_violates
        assert client.dominant_share == pytest.approx(5 / 6)
        # The 50/50 OS split is critical under the BFT 1/3 tolerance but much
        # less concentrated than the client monoculture.
        assert os_profile.dominant_share == pytest.approx(0.5)
        assert os_profile.entropy_bits > client.entropy_bits

    def test_diverse_population_has_no_flagged_slot(self, unique_population):
        profiles = component_entropy_profile(unique_population)
        assert not any(profile.single_fault_violates for profile in profiles)
        assert all(profile.dominant_share == pytest.approx(1 / 8) for profile in profiles)

    def test_weakest_component_is_the_client_slot(self, mixed_population):
        weakest = weakest_component(mixed_population)
        assert weakest.kind is ComponentKind.CONSENSUS_CLIENT

    def test_exposure_by_component_sorted(self, mixed_population):
        exposure = exposure_by_component(mixed_population)
        values = list(exposure.values())
        assert values == sorted(values, reverse=True)
        assert exposure["consensus_client:client-alpha:1.0"] == pytest.approx(5.0)

    def test_exposure_restricted_to_kind(self, mixed_population):
        exposure = exposure_by_component(mixed_population, kind=ComponentKind.CRYPTO_LIBRARY)
        assert all(key.startswith("crypto_library:") for key in exposure)

    def test_diversification_priority_thresholds(self, mixed_population):
        bft_priority = diversification_priority(mixed_population, family=ProtocolFamily.BFT)
        nakamoto_priority = diversification_priority(
            mixed_population, family=ProtocolFamily.NAKAMOTO
        )
        assert len(bft_priority) >= len(nakamoto_priority)
        assert all(share >= 1 / 3 for _, share in bft_priority)

    def test_diverse_population_has_empty_priority_list(self, unique_population):
        assert diversification_priority(unique_population) == ()


class TestWeightedBincount:
    def test_groups_in_first_appearance_order(self):
        labels = ["linux", "bsd", "linux", "windows", "bsd", "linux"]
        result = _weighted_bincount(labels, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert result == {"linux": 10.0, "bsd": 7.0, "windows": 4.0}
        assert list(result) == ["linux", "bsd", "windows"]
        assert _weighted_bincount([], []) == {}

    def test_public_functions_take_no_backend(self):
        for function in (
            component_census,
            component_entropy_profile,
            weakest_component,
            exposure_by_component,
            diversification_priority,
        ):
            assert "backend" not in inspect.signature(function).parameters


class TestComponentExposureExperiment:
    def test_skewed_ecosystem_has_a_critical_slot(self):
        result = run_component_exposure(population_size=200)
        assert result.skewed_has_critical_slot
        skewed = [e for e in result.ecosystems if "skewed" in e.label][0]
        default = [e for e in result.ecosystems if "default" in e.label][0]
        assert skewed.weakest_share > default.weakest_share
        assert skewed.population_entropy_bits < default.population_entropy_bits
        assert len(skewed.priority_components) >= 1

    def test_table_rendering(self):
        result = run_component_exposure(population_size=100)
        rendered = exposure_table(result).render()
        assert "component kind" in rendered
        assert "operating_system" in rendered

    def test_parameter_validation(self):
        with pytest.raises(Exception):
            run_component_exposure(population_size=5)
