"""Tests for churn, stake delegation and committee selection."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.exceptions import MembershipError
from repro.core.population import ReplicaPopulation
from repro.datasets.software_ecosystem import default_ecosystem
from repro.permissionless.churn import ChurnModel
from repro.permissionless.committee import (
    committee_census,
    committee_population,
    select_committee,
)
from repro.permissionless.stake import StakeRegistry


class TestChurn:
    def test_churn_is_reproducible(self, ecosystem):
        population_a = ecosystem.sample_population(50, seed=1)
        population_b = ecosystem.sample_population(50, seed=1)
        trace_a = ChurnModel(ecosystem, seed=9).run(population_a, 100)
        trace_b = ChurnModel(ecosystem, seed=9).run(population_b, 100)
        assert trace_a.entropy_series == trace_b.entropy_series

    def test_population_never_shrinks_below_minimum(self, ecosystem):
        population = ecosystem.sample_population(10, seed=2)
        ChurnModel(ecosystem, join_rate=0.0, leave_rate=1.0, seed=3).run(
            population, 50, min_population=4
        )
        assert len(population) >= 4

    def test_join_only_churn_grows_population(self, ecosystem):
        population = ecosystem.sample_population(10, seed=4)
        trace = ChurnModel(ecosystem, join_rate=1.0, leave_rate=0.0, seed=5).run(population, 30)
        assert trace.joined == 30
        assert trace.left == 0
        assert len(population) == 40

    def test_trace_records_entropy_per_step(self, ecosystem):
        population = ecosystem.sample_population(20, seed=6)
        trace = ChurnModel(ecosystem, seed=7).run(population, 25)
        assert len(trace.entropy_series) == 25
        assert trace.final_entropy == population.entropy()

    def test_invalid_rates_rejected(self, ecosystem):
        with pytest.raises(MembershipError):
            ChurnModel(ecosystem, join_rate=1.5)

    def test_zero_steps_rejected(self, ecosystem):
        population = ecosystem.sample_population(10, seed=8)
        with pytest.raises(MembershipError):
            ChurnModel(ecosystem).run(population, 0)


class TestStakeRegistry:
    def _registry(self) -> StakeRegistry:
        registry = StakeRegistry()
        registry.open_account("exchange", 0.0)
        for index in range(10):
            registry.open_account(f"user-{index}", 10.0)
        return registry

    def test_self_validation_by_default(self):
        registry = self._registry()
        power = registry.effective_power()
        assert power["user-0"] == pytest.approx(10.0)

    def test_delegation_concentrates_power(self):
        registry = self._registry()
        for index in range(8):
            registry.delegate(f"user-{index}", "exchange")
        power = registry.effective_power()
        assert power["exchange"] == pytest.approx(80.0)
        assert registry.custodian_concentration(1) == pytest.approx(0.8)

    def test_delegation_reduces_validator_entropy(self):
        registry = self._registry()
        before = registry.validator_distribution().entropy()
        for index in range(8):
            registry.delegate(f"user-{index}", "exchange")
        after = registry.validator_distribution().entropy()
        assert after < before

    def test_delegation_chain_resolution(self):
        registry = StakeRegistry()
        registry.open_account("a", 5.0)
        registry.open_account("b", 0.0)
        registry.open_account("c", 0.0)
        registry.delegate("a", "b")
        registry.delegate("b", "c")
        assert registry.effective_power() == {"c": pytest.approx(5.0)}

    def test_delegation_cycle_detected(self):
        registry = StakeRegistry()
        registry.open_account("a", 5.0)
        registry.open_account("b", 1.0)
        registry.delegate("a", "b")
        registry.delegate("b", "a")
        with pytest.raises(MembershipError):
            registry.effective_power()

    def test_self_delegation_rejected(self):
        registry = StakeRegistry()
        registry.open_account("a", 5.0)
        with pytest.raises(MembershipError):
            registry.delegate("a", "a")

    def test_unknown_delegate_rejected(self):
        registry = StakeRegistry()
        registry.open_account("a", 5.0)
        with pytest.raises(MembershipError):
            registry.delegate("a", "ghost")

    def test_duplicate_account_rejected(self):
        registry = StakeRegistry()
        registry.open_account("a", 5.0)
        with pytest.raises(MembershipError):
            registry.open_account("a", 1.0)


class TestCommittees:
    def test_committee_size(self, unique_population):
        committee = select_committee(unique_population, seats=20, seed=1)
        assert committee.total_seats == 20
        assert sum(seats for _, seats in committee.seats_by_member) == 20

    def test_selection_is_deterministic_given_seed(self, unique_population):
        a = select_committee(unique_population, seats=10, seed=5)
        b = select_committee(unique_population, seats=10, seed=5)
        assert a.seats_by_member == b.seats_by_member

    def test_power_weighted_selection_favours_heavy_replicas(self):
        population = ReplicaPopulation(
            dataclasses.replace(replica, power=1000.0)
            if replica.replica_id == "replica-0"
            else replica
            for replica in ReplicaPopulation.with_unique_configurations(10)
        )
        committee = select_committee(population, seats=50, seed=2)
        assert dict(committee.seats_by_member)["replica-0"] > 25

    def test_committee_population_power_equals_seats(self, unique_population):
        committee = select_committee(unique_population, seats=12, seed=3)
        population = committee_population(unique_population, committee)
        assert population.total_power() == pytest.approx(12.0)

    def test_committee_census_entropy_bounded_by_population(self, unique_population):
        committee = select_committee(unique_population, seats=16, seed=4)
        census = committee_census(unique_population, committee)
        assert census.entropy() <= unique_population.entropy() + 1e-9

    def test_invalid_committee_parameters(self, unique_population):
        with pytest.raises(MembershipError):
            select_committee(unique_population, seats=0)
        with pytest.raises(MembershipError):
            select_committee(ReplicaPopulation(), seats=5)
