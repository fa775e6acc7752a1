"""Unit tests for repro.core.population."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.configuration import ComponentKind, SoftwareComponent
from repro.core.exceptions import PopulationError
from repro.core.population import Replica, ReplicaPopulation


class TestReplica:
    def test_rejects_negative_power(self, linux_alpha_config):
        with pytest.raises(PopulationError):
            Replica("r", linux_alpha_config, power=-1.0)

    def test_rejects_empty_id(self, linux_alpha_config):
        with pytest.raises(PopulationError):
            Replica("", linux_alpha_config)


class TestMembership:
    def test_join_and_leave(self, linux_alpha_config):
        population = ReplicaPopulation()
        population.join(Replica("r0", linux_alpha_config))
        assert "r0" in population
        removed = population.leave("r0")
        assert removed.replica_id == "r0"
        assert len(population) == 0

    def test_duplicate_join_raises(self, linux_alpha_config):
        population = ReplicaPopulation([Replica("r0", linux_alpha_config)])
        with pytest.raises(PopulationError):
            population.join(Replica("r0", linux_alpha_config))

    def test_constructor_rejects_duplicate_ids(self, linux_alpha_config):
        # Mirrors the catalog's duplicate-id guard: an earlier replica must
        # never be silently shadowed by a same-id late arrival.
        with pytest.raises(PopulationError, match="already joined"):
            ReplicaPopulation(
                [
                    Replica("r0", linux_alpha_config, power=1.0),
                    Replica("r0", linux_alpha_config, power=5.0),
                ]
            )

    def test_leave_unknown_raises(self):
        with pytest.raises(PopulationError):
            ReplicaPopulation().leave("ghost")


class TestPowerAndCensus:
    def test_total_power(self, small_population):
        assert small_population.total_power() == pytest.approx(4.0)

    def test_census_power_weighted(self, small_population):
        census = small_population.configuration_census()
        assert census.support_size() == 2
        assert max(census.probabilities()) == pytest.approx(0.75)

    def test_census_count_weighted_matches_when_equal_power(self, small_population):
        by_power = small_population.configuration_census(weight_by_power=True)
        by_count = small_population.configuration_census(weight_by_power=False)
        assert by_power.entropy() == pytest.approx(by_count.entropy())

    def test_census_differs_when_power_skewed(self, small_population):
        skewed = ReplicaPopulation(
            dataclasses.replace(replica, power=10.0) if replica.replica_id == "r3" else replica
            for replica in small_population
        )
        by_power = skewed.configuration_census(weight_by_power=True)
        by_count = skewed.configuration_census(weight_by_power=False)
        assert by_power.entropy() != pytest.approx(by_count.entropy())

    def test_empty_census_raises(self):
        with pytest.raises(PopulationError):
            ReplicaPopulation().configuration_census()

    def test_unique_population_entropy(self, unique_population):
        # Example 1's comparison point: 8 unique configurations -> 3 bits.
        assert unique_population.entropy() == pytest.approx(3.0)

    def test_component_exposure_queries(self, small_population):
        openssl = SoftwareComponent(ComponentKind.CRYPTO_LIBRARY, "openssl", "1.0")
        assert len(small_population.replicas_using_component(openssl)) == 3
        assert small_population.power_using_component(openssl) == pytest.approx(3.0)

    def test_with_unique_configurations_rejects_zero(self):
        with pytest.raises(PopulationError):
            ReplicaPopulation.with_unique_configurations(0)
