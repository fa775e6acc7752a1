"""Tests for the diversity planner, manager, monitor and weight policies."""

from __future__ import annotations

import random

import pytest

from repro.core.configuration import ComponentKind, ReplicaConfiguration
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import AnalysisError, PlanningError
from repro.core.optimality import is_kappa_omega_optimal
from repro.core.population import Replica, ReplicaPopulation
from repro.core.resilience import ProtocolFamily
from repro.datasets.software_ecosystem import default_ecosystem
from repro.diversity.manager import DiversityManager
from repro.diversity.monitor import DiversityMonitor, MonitorThresholds
from repro.diversity.planner import EntropyPlanner
from repro.diversity.policy import TwoClassWeightPolicy
from repro.faults.vulnerability import make_vulnerability


class TestEntropyPlanner:
    def test_even_assignment_without_capacity(self):
        planner = EntropyPlanner(["a", "b", "c", "d"])
        plan = planner.plan(8)
        assert plan.kappa == 4
        assert plan.omega == pytest.approx(2.0)
        assert plan.entropy == pytest.approx(2.0)
        assert is_kappa_omega_optimal(plan.as_abundance())

    def test_uneven_totals_differ_by_at_most_one(self):
        plan = EntropyPlanner(["a", "b", "c"]).plan(7)
        counts = [count for _, count in plan.counts]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 7

    def test_capacity_constraints_respected(self):
        planner = EntropyPlanner(["a", "b", "c"], capacity={"a": 1})
        plan = planner.plan(7)
        assert dict(plan.counts)["a"] == 1

    def test_insufficient_capacity_rejected(self):
        planner = EntropyPlanner(["a", "b"], capacity={"a": 1, "b": 1})
        with pytest.raises(PlanningError):
            planner.plan(3)

    def test_monoculture_baseline(self):
        plan = EntropyPlanner(["a", "b", "c"]).plan_monoculture(9)
        assert plan.kappa == 1
        assert plan.entropy == 0.0

    def test_proportional_baseline_matches_popularity(self):
        planner = EntropyPlanner(["popular", "rare"])
        plan = planner.plan_proportional(10, {"popular": 0.9, "rare": 0.1})
        counts = dict(plan.counts)
        assert counts["popular"] == 9
        assert counts["rare"] == 1

    def test_proportional_requires_positive_popularity(self):
        with pytest.raises(PlanningError):
            EntropyPlanner(["a"]).plan_proportional(5, {"a": 0.0})

    def test_planner_entropy_dominates_baselines(self):
        labels = [f"c{i}" for i in range(6)]
        planner = EntropyPlanner(labels)
        popularity = {label: 1.0 / (rank + 1) for rank, label in enumerate(labels)}
        assert planner.plan(30).entropy >= planner.plan_proportional(30, popularity).entropy
        assert planner.plan(30).entropy > planner.plan_monoculture(30).entropy

    def test_assignment_list_length(self):
        plan = EntropyPlanner(["a", "b"]).plan(5)
        assert len(plan.assignment_list()) == 5

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(PlanningError):
            EntropyPlanner(["a", "a"])


class TestDiversityManager:
    def _candidates(self):
        return [
            ReplicaConfiguration.from_names(operating_system=os_name, consensus_client=client)
            for os_name in ("linux", "freebsd", "openbsd")
            for client in ("client-alpha", "client-beta")
        ]

    def test_initial_assignment_is_balanced(self):
        manager = DiversityManager([f"slot-{i}" for i in range(12)], self._candidates())
        deployment = manager.deployment()
        assert deployment.entropy > 2.0
        assert len(deployment.assignment) == 12

    def test_vulnerability_response_migrates_exposed_slots(self):
        manager = DiversityManager([f"slot-{i}" for i in range(12)], self._candidates())
        vulnerability = make_vulnerability(ComponentKind.OPERATING_SYSTEM, "linux")
        migrated = manager.respond_to_vulnerability(vulnerability)
        assert migrated  # some slots ran linux
        assert not any(
            configuration.has_component(vulnerability.component)
            for _, configuration in manager.deployment().assignment
        )
        assert manager.migrations_performed == len(migrated)

    def test_no_safe_candidate_raises(self):
        only_linux = [
            ReplicaConfiguration.from_names(operating_system="linux", consensus_client="c")
        ]
        manager = DiversityManager(["slot-0"], only_linux)
        with pytest.raises(PlanningError):
            manager.respond_to_vulnerability(
                make_vulnerability(ComponentKind.OPERATING_SYSTEM, "linux")
            )

    def test_duplicate_slots_rejected(self):
        with pytest.raises(PlanningError):
            DiversityManager(["s0", "s0"], self._candidates())


class TestDiversityMonitor:
    def test_healthy_census_raises_no_alerts(self):
        monitor = DiversityMonitor()
        census = ConfigurationDistribution.uniform_labels(16)
        assert monitor.evaluate(census) == ()

    def test_low_entropy_and_richness_alerts(self):
        monitor = DiversityMonitor()
        census = ConfigurationDistribution({"a": 0.6, "b": 0.4})
        codes = {alert.code for alert in monitor.evaluate(census)}
        assert "low-entropy" in codes
        assert "low-richness" in codes
        assert "single-configuration-violation" in codes

    def test_critical_alert_when_single_share_exceeds_tolerance(self):
        monitor = DiversityMonitor(family=ProtocolFamily.NAKAMOTO)
        census = ConfigurationDistribution({"a": 0.55, "b": 0.25, "c": 0.10, "d": 0.10})
        alerts = monitor.evaluate(census)
        assert any(alert.severity == "critical" for alert in alerts)

    def test_warning_band_below_tolerance(self):
        thresholds = MonitorThresholds(min_entropy_bits=0.0, min_support=1, max_single_share_factor=0.5)
        monitor = DiversityMonitor(thresholds=thresholds)
        census = ConfigurationDistribution({"a": 0.2, "b": 0.2, "c": 0.2, "d": 0.2, "e": 0.2})
        codes = {alert.code for alert in monitor.evaluate(census)}
        assert codes == {"single-configuration-risk"}

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(AnalysisError):
            MonitorThresholds(min_entropy_bits=-1.0)
        with pytest.raises(AnalysisError):
            MonitorThresholds(min_support=0)


class TestTwoClassPolicy:
    def _population(self) -> ReplicaPopulation:
        replicas = []
        for index in range(4):
            replicas.append(
                Replica(
                    f"attested-{index}",
                    ReplicaConfiguration.labeled(f"a{index}"),
                    power=1.0,
                    attested=True,
                )
            )
        for index in range(6):
            replicas.append(
                Replica(
                    f"plain-{index}",
                    ReplicaConfiguration.labeled(f"p{index}"),
                    power=1.0,
                    attested=False,
                )
            )
        return ReplicaPopulation(replicas)

    def test_equal_weights_reflect_population_split(self):
        census = TwoClassWeightPolicy().apply(self._population())
        assert census.attested_power_fraction == pytest.approx(0.4)
        assert census.unattested_worst_case_fraction == pytest.approx(0.6)

    def test_boosting_attested_weight_shrinks_unknown_mass(self):
        population = self._population()
        equal = TwoClassWeightPolicy(1.0, 1.0).apply(population)
        boosted = TwoClassWeightPolicy(4.0, 1.0).apply(population)
        assert boosted.unattested_worst_case_fraction < equal.unattested_worst_case_fraction
        assert boosted.entropy > equal.entropy

    @pytest.mark.parametrize(
        "attested_weight, unattested_weight",
        [(1.0, 1.0), (2.0, 1.0), (16.0, 1.0), (0.3, 1.0), (0.0, 1.0), (1.0, 0.0)],
    )
    @pytest.mark.parametrize("seed", [0, 23, 91])
    def test_census_equals_the_rebuilt_weighted_census(
        self, attested_weight, unattested_weight, seed
    ):
        rng = random.Random(seed)
        powers = [rng.uniform(0.1, 3.0) for _ in range(120)]
        population = default_ecosystem().sample_population(
            120, seed=seed, power=powers, attested_fraction=0.4
        )
        weighted = TwoClassWeightPolicy(attested_weight, unattested_weight).apply(
            population
        )
        # Reference: the census rebuilt from the effective powers, as the
        # two-class experiment used to do after apply().
        weights: dict = {}
        power_by_id = dict(weighted.effective_power)
        for replica in population:
            power = power_by_id.get(replica.replica_id, 0.0)
            if power <= 0:
                continue
            key = replica.configuration if replica.attested else "unattested-unknown"
            weights[key] = weights.get(key, 0.0) + power
        reference = ConfigurationDistribution(weights)
        assert list(weighted.census.shares().items()) == list(reference.shares().items())
        assert weighted.entropy == weighted.census.entropy()

    def test_sweep_ratio_is_monotone(self):
        population = self._population()
        fractions = [
            TwoClassWeightPolicy(attested_weight=ratio, unattested_weight=1.0)
            .apply(population)
            .unattested_worst_case_fraction
            for ratio in (1.0, 2.0, 4.0, 8.0)
        ]
        assert fractions == sorted(fractions, reverse=True)

    def test_invalid_weights_rejected(self):
        with pytest.raises(AnalysisError):
            TwoClassWeightPolicy(-1.0, 1.0)
        with pytest.raises(AnalysisError):
            TwoClassWeightPolicy(0.0, 0.0)
