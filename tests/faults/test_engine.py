"""Tests for the batched campaign engine and its cross-backend identity."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.monte_carlo import estimate_violation_probability
from repro.backend import available_backends
from repro.backend.base import campaign_uniform
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily
from repro.faults.campaign import ExploitCampaign
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.engine import BatchCampaignEngine, run_census_trials
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario


@pytest.fixture
def flaky_scenario():
    """A moderately diverse population with 60%-reliable exploits."""
    return ecosystem_scenario(
        ecosystem="default", population_size=24, seed=3, exploit_probability=0.6
    )


class TestCounterRng:
    def test_numpy_uniforms_match_scalar_reference(self):
        if "numpy" not in available_backends():
            pytest.skip("numpy not installed")
        import numpy as np

        from repro.backend.base import (
            _INV_2_53,
            _MASK64,
            _SPLITMIX_GAMMA,
            _SPLITMIX_MIX1,
            _SPLITMIX_MIX2,
        )

        indices = np.arange(0, 4096, dtype=np.uint64)
        z = np.uint64(99 & _MASK64) + (indices + np.uint64(1)) * np.uint64(
            _SPLITMIX_GAMMA
        )
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SPLITMIX_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MIX2)
        z ^= z >> np.uint64(31)
        vectorized = (z >> np.uint64(11)).astype(np.float64) * _INV_2_53
        scalar = [campaign_uniform(99, int(index)) for index in range(4096)]
        assert vectorized.tolist() == scalar

    def test_uniforms_are_in_unit_interval_and_well_spread(self):
        values = [campaign_uniform(0, index) for index in range(10_000)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert 0.45 < sum(values) / len(values) < 0.55


class TestCrossBackendIdentity:
    def test_estimates_identical_across_backends(self, flaky_scenario):
        estimates = {}
        for backend in available_backends():
            engine = BatchCampaignEngine(
                flaky_scenario.population, flaky_scenario.catalog, backend=backend
            )
            estimates[backend] = engine.estimate(trials=300, seed=42)
        results = list(estimates.values())
        for other in results[1:]:
            assert other == results[0]

    def test_worst_case_estimates_identical_across_backends(self, flaky_scenario):
        estimates = [
            BatchCampaignEngine(
                flaky_scenario.population, flaky_scenario.catalog, backend=backend
            ).estimate_worst_case(max_vulnerabilities=2, trials=300, seed=7)
            for backend in available_backends()
        ]
        for other in estimates[1:]:
            assert other == estimates[0]


class TestEstimateSemantics:
    def test_reliable_exploits_reproduce_the_deterministic_campaign(
        self, small_population, catalog
    ):
        # p = 1.0 everywhere: every trial equals the scalar campaign outcome.
        engine = BatchCampaignEngine(small_population, catalog)
        estimate = engine.estimate(trials=50, seed=1)
        outcome = ExploitCampaign(small_population, catalog).run(tuple(v.vuln_id for v in catalog))
        assert estimate.violation_probability == 1.0
        assert estimate.mean_compromised_fraction == pytest.approx(
            outcome.compromised_fraction
        )
        assert dict(estimate.mean_power_per_vulnerability) == pytest.approx(
            dict(outcome.power_per_vulnerability)
        )

    def test_mean_fraction_scales_with_exploit_probability(self, small_population):
        from repro.core.configuration import ComponentKind
        from repro.faults.vulnerability import make_vulnerability

        catalog = VulnerabilityCatalog(
            [
                make_vulnerability(
                    ComponentKind.OPERATING_SYSTEM, "linux", exploit_probability=0.5
                )
            ]
        )
        engine = BatchCampaignEngine(small_population, catalog)
        estimate = engine.estimate(trials=4000, seed=5)
        # 3 of 4 replicas exposed, each compromised with p=0.5.
        assert estimate.mean_compromised_fraction == pytest.approx(0.375, abs=0.02)

    def test_tolerance_families(self, small_population, catalog):
        engine = BatchCampaignEngine(small_population, catalog)
        bft = engine.estimate(trials=10, seed=0, family=ProtocolFamily.BFT)
        majority = engine.estimate(trials=10, seed=0, family=ProtocolFamily.NAKAMOTO)
        assert bft.tolerated_fraction == pytest.approx(1 / 3)
        assert majority.tolerated_fraction == pytest.approx(1 / 2)
        # 75% compromised violates both.
        assert bft.violations == majority.violations == 10

    def test_disclosure_time_gates_columns(self, small_population):
        from repro.core.configuration import ComponentKind
        from repro.faults.vulnerability import make_vulnerability

        catalog = VulnerabilityCatalog(
            [
                make_vulnerability(
                    ComponentKind.OPERATING_SYSTEM, "linux", disclosed_at=50.0
                )
            ]
        )
        engine = BatchCampaignEngine(small_population, catalog)
        estimate = engine.estimate(trials=20, seed=0, time=0.0)
        assert estimate.exploited == ()
        assert estimate.violations == 0
        assert estimate.mean_compromised_fraction == 0.0
        assert dict(estimate.mean_power_per_vulnerability) == {
            tuple(v.vuln_id for v in catalog)[0]: 0.0
        }

    def test_seed_determinism_and_variation(self, flaky_scenario):
        engine = BatchCampaignEngine(
            flaky_scenario.population, flaky_scenario.catalog
        )
        first = engine.estimate(trials=200, seed=8)
        again = engine.estimate(trials=200, seed=8)
        other = engine.estimate(trials=200, seed=9)
        assert first == again
        assert first != other


class TestUsageErrors:
    def test_zero_trials_rejected(self, small_population, catalog):
        engine = BatchCampaignEngine(small_population, catalog)
        with pytest.raises(FaultModelError, match="trial count"):
            engine.estimate(trials=0)

    def test_empty_catalog_rejected(self, small_population):
        engine = BatchCampaignEngine(small_population, VulnerabilityCatalog())
        with pytest.raises(FaultModelError, match="catalog is empty"):
            engine.estimate(trials=10)
        with pytest.raises(FaultModelError, match="catalog is empty"):
            engine.estimate_worst_case(trials=10)

    def test_empty_selection_rejected(self, small_population, catalog):
        engine = BatchCampaignEngine(small_population, catalog)
        with pytest.raises(FaultModelError, match="at least one vulnerability"):
            engine.estimate([], trials=10)

    def test_duplicate_selection_rejected(self, small_population, catalog):
        engine = BatchCampaignEngine(small_population, catalog)
        with pytest.raises(FaultModelError, match="duplicate vulnerability ids"):
            engine.estimate(
                ["CVE-TEST-OPENSSL", "CVE-TEST-OPENSSL"], trials=10
            )

    def test_nonpositive_budget_rejected(self, small_population, catalog):
        engine = BatchCampaignEngine(small_population, catalog)
        with pytest.raises(FaultModelError, match="max vulnerabilities"):
            engine.estimate_worst_case(max_vulnerabilities=0, trials=10)

    def test_bad_tolerance_rejected(self, small_population, catalog):
        engine = BatchCampaignEngine(small_population, catalog)
        with pytest.raises(FaultModelError, match="tolerated fraction"):
            engine.estimate(trials=10, tolerated_fraction=0.0)

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("time", [None, -1e9])
    def test_zero_total_power_rejected(self, layout, time):
        # time=-1e9 precedes every disclosure: the check must not depend on
        # any point reaching a kernel.
        scenario = ecosystem_scenario(ecosystem="default", population_size=20, seed=1)
        powerless = ReplicaPopulation(
            dataclasses.replace(replica, power=0.0) for replica in scenario.population
        )
        matrix = PopulationMatrix.build(powerless, scenario.catalog, layout=layout)
        engine = BatchCampaignEngine.from_matrix(matrix)
        with pytest.raises(FaultModelError, match="total power"):
            engine.estimate(trials=10, time=time)
        with pytest.raises(FaultModelError, match="total power"):
            engine.estimate_worst_case(max_vulnerabilities=2, trials=10, time=time)


class TestCensusSeam:
    @pytest.mark.parametrize("backend", available_backends())
    def test_census_trials_match_the_estimator(self, backend):
        census = ConfigurationDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
        batch = run_census_trials(
            census,
            vulnerability_probability=0.3,
            exploit_budget=1,
            trials=500,
            seed=21,
            tolerances=(1 / 3,),
            backend=backend,
        )
        estimate = estimate_violation_probability(
            census,
            vulnerability_probability=0.3,
            exploit_budget=1,
            trials=500,
            seed=21,
            backend=backend,
        )
        assert batch.violations == (estimate.violations,)
        assert batch.violations[0] / batch.trials == estimate.violation_probability

    def test_safety_violation_draws_each_census_once(self):
        # Both tolerances of a census are judged on one draw: one census
        # kernel call per census (two, one per tolerance, before).
        from repro.experiments.orchestrator import execute_spec, registry
        from repro.experiments.safety_violation import default_censuses

        spec = registry.get_spec("safety_violation")
        result = execute_spec(spec, spec.params_type(trials=200))
        counters = result.kernel_counters["violation_trials"]
        assert counters["calls"] == len(default_censuses()) == 8
        assert counters["trials"] == 8 * 200
