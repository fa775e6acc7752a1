"""Unit tests for the array-backed population × vulnerability matrix."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.backend import available_backends
from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.core.power import PowerRegime
from repro.faults.campaign import ExploitCampaign
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario


class TestBuild:
    def test_rows_follow_join_order_and_columns_catalog_order(
        self, small_population, catalog
    ):
        matrix = PopulationMatrix.build(small_population, catalog)
        assert matrix.replica_ids == ("r0", "r1", "r2", "r3")
        assert matrix.vulnerability_ids == ("CVE-TEST-OPENSSL", "CVE-TEST-LINUX")
        assert matrix.replica_count == 4
        assert matrix.vulnerability_count == 2
        assert matrix.total_power == pytest.approx(4.0)

    def test_exposure_cells_match_fault_domains(self, small_population, catalog):
        matrix = PopulationMatrix.build(small_population, catalog)
        # r0..r2 run linux/alpha/openssl, r3 runs freebsd/beta/libsodium.
        assert matrix.exposure_rows() == (
            (1.0, 1.0),
            (1.0, 1.0),
            (1.0, 1.0),
            (0.0, 0.0),
        )
        assert matrix.exposed_row_indices("CVE-TEST-OPENSSL") == (0, 1, 2)

    def test_empty_population_rejected(self, catalog):
        from repro.core.population import ReplicaPopulation

        with pytest.raises(FaultModelError):
            PopulationMatrix.build(ReplicaPopulation(), catalog)

    def test_empty_catalog_builds_zero_columns(self, small_population):
        matrix = PopulationMatrix.build(small_population, VulnerabilityCatalog())
        assert matrix.vulnerability_count == 0
        assert matrix.exposed_power() == {}

    def test_unknown_ids_raise(self, small_population, catalog):
        matrix = PopulationMatrix.build(small_population, catalog)
        with pytest.raises(FaultModelError):
            matrix.vulnerability_index("CVE-NOPE")


class TestValidation:
    def test_duplicate_replica_ids_rejected(self):
        with pytest.raises(FaultModelError, match="duplicate replica ids"):
            PopulationMatrix(
                replica_ids=("a", "a"),
                powers=(1.0, 1.0),
                vulnerability_ids=("v",),
                success_probabilities=(1.0,),
                disclosed_at=(0.0,),
                exposure=((1.0,), (1.0,)),
            )

    def test_duplicate_vulnerability_ids_rejected(self):
        with pytest.raises(FaultModelError, match="duplicate vulnerability ids"):
            PopulationMatrix(
                replica_ids=("a",),
                powers=(1.0,),
                vulnerability_ids=("v", "v"),
                success_probabilities=(1.0, 1.0),
                disclosed_at=(0.0, 0.0),
                exposure=((1.0, 0.0),),
            )

    @pytest.mark.parametrize("bad_power", [-1.0, math.nan, math.inf])
    def test_bad_powers_rejected(self, bad_power):
        with pytest.raises(FaultModelError, match="finite and non-negative"):
            PopulationMatrix(
                replica_ids=("a", "b"),
                powers=(1.0, bad_power),
                vulnerability_ids=("v",),
                success_probabilities=(1.0,),
                disclosed_at=(0.0,),
                exposure=((1.0,), (0.0,)),
            )

    def test_shape_mismatches_rejected(self):
        with pytest.raises(FaultModelError):
            PopulationMatrix(
                replica_ids=("a",),
                powers=(1.0, 2.0),
                vulnerability_ids=("v",),
                success_probabilities=(1.0,),
                disclosed_at=(0.0,),
                exposure=((1.0,),),
            )
        with pytest.raises(FaultModelError):
            PopulationMatrix(
                replica_ids=("a",),
                powers=(1.0,),
                vulnerability_ids=("v",),
                success_probabilities=(1.0,),
                disclosed_at=(0.0,),
                exposure=((1.0, 0.0),),
            )


class TestReductions:
    @pytest.mark.parametrize("backend", available_backends())
    def test_exposed_power_matches_catalog_exposure(
        self, small_population, catalog, backend
    ):
        matrix = PopulationMatrix.build(small_population, catalog)
        assert matrix.exposed_power(backend=backend) == catalog.exposure(
            small_population
        )

    def test_exposed_power_respects_disclosure_time(self, small_population):
        from repro.core.configuration import ComponentKind
        from repro.faults.vulnerability import make_vulnerability

        catalog = VulnerabilityCatalog(
            [
                make_vulnerability(
                    ComponentKind.OPERATING_SYSTEM, "linux", disclosed_at=10.0
                )
            ]
        )
        matrix = PopulationMatrix.build(small_population, catalog)
        assert list(matrix.exposed_power(time=0.0).values()) == [0.0]
        assert list(matrix.exposed_power(time=10.0).values()) == [3.0]

    def test_most_damaging_matches_catalog_ranking(self, small_population, catalog):
        matrix = PopulationMatrix.build(small_population, catalog)
        expected = [
            (vulnerability.vuln_id, power)
            for vulnerability, power in catalog.most_damaging(
                small_population, count=2
            )
        ]
        assert list(matrix.most_damaging(2)) == expected


class TestBackendBitIdentity:
    """Exposure reductions agree bit for bit across backends, for any powers.

    Non-dyadic powers make float sums depend on their order; every backend
    adds each column's exposed power over the CSR cells in ascending row
    order, so a dense-built matrix gives identical exposed power — and
    identical worst-case targets and campaign outcomes — on every backend.
    """

    @staticmethod
    def weighted_scenario(seed):
        """150 default-ecosystem replicas with powers drawn from U(0.1, 3)."""
        scenario = ecosystem_scenario(
            ecosystem="default", population_size=150, seed=seed, exploit_probability=1.0
        )
        rng = random.Random(seed)
        population = ReplicaPopulation(
            (
                dataclasses.replace(replica, power=rng.uniform(0.1, 3.0))
                for replica in scenario.population.replicas()
            ),
            regime=PowerRegime.HASHRATE,
        )
        return population, scenario.catalog

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("seed", range(5))
    def test_exposed_power_and_worst_case_outcome_match_python(self, backend, seed):
        population, catalog = self.weighted_scenario(seed)
        results = {}
        for name in ("python", backend):
            matrix = PopulationMatrix.build(population, catalog, layout="dense")
            campaign = ExploitCampaign(population, catalog, backend=name, matrix=matrix)
            results[name] = (
                matrix.exposed_power(backend=name),
                campaign.run_worst_case(max_vulnerabilities=3),
            )
        assert results[backend] == results["python"]
