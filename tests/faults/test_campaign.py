"""Unit tests for exploit campaigns and fault schedules."""

from __future__ import annotations

import pytest

from repro.core.configuration import ComponentKind
from repro.core.exceptions import FaultModelError
from repro.core.resilience import ProtocolFamily
from repro.faults.campaign import ExploitCampaign, single_vulnerability_breakdown
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.injection import FaultKind, FaultSchedule, FaultSpec
from repro.faults.vulnerability import make_vulnerability


def _ids(catalog):
    return tuple(vulnerability.vuln_id for vulnerability in catalog)


class TestExploitCampaign:
    def test_single_vulnerability_compromises_exposed_replicas(
        self, small_population, catalog
    ):
        campaign = ExploitCampaign(small_population, catalog)
        outcome = campaign.run(["CVE-TEST-OPENSSL"])
        assert outcome.compromised_replicas == frozenset({"r0", "r1", "r2"})
        assert outcome.compromised_power == pytest.approx(3.0)
        assert outcome.compromised_fraction == pytest.approx(0.75)

    def test_overlapping_vulnerabilities_count_power_once(self, small_population, catalog):
        campaign = ExploitCampaign(small_population, catalog)
        outcome = campaign.run(["CVE-TEST-OPENSSL", "CVE-TEST-LINUX"])
        # Both vulnerabilities hit the same three replicas.
        assert outcome.compromised_power == pytest.approx(3.0)
        per_vuln = dict(outcome.power_per_vulnerability)
        assert per_vuln["CVE-TEST-OPENSSL"] == pytest.approx(3.0)
        assert per_vuln["CVE-TEST-LINUX"] == pytest.approx(3.0)

    def test_undisclosed_vulnerability_is_skipped(self, small_population):
        catalog = VulnerabilityCatalog(
            [make_vulnerability(ComponentKind.OPERATING_SYSTEM, "linux", disclosed_at=50.0)]
        )
        campaign = ExploitCampaign(small_population, catalog)
        outcome = campaign.run(_ids(catalog), time=0.0)
        assert outcome.compromised_power == 0.0

    def test_worst_case_targets_biggest_exposure(self, small_population, catalog):
        campaign = ExploitCampaign(small_population, catalog)
        outcome = campaign.run_worst_case(max_vulnerabilities=1)
        assert outcome.compromised_power == pytest.approx(3.0)

    def test_resilience_report_integration(self, small_population, catalog):
        campaign = ExploitCampaign(small_population, catalog)
        outcome = campaign.run(["CVE-TEST-OPENSSL"])
        report = campaign.resilience_report(outcome, family=ProtocolFamily.BFT)
        assert not report.safe  # 75% of power compromised

    def test_unreliable_exploit_is_seeded(self, small_population):
        catalog = VulnerabilityCatalog(
            [
                make_vulnerability(
                    ComponentKind.OPERATING_SYSTEM, "linux", exploit_probability=0.5
                )
            ]
        )
        first = ExploitCampaign(small_population, catalog, seed=3).run(_ids(catalog))
        second = ExploitCampaign(small_population, catalog, seed=3).run(_ids(catalog))
        assert first.compromised_replicas == second.compromised_replicas

    def test_empty_campaign_rejected(self, small_population, catalog):
        with pytest.raises(FaultModelError):
            ExploitCampaign(small_population, catalog).run([])

    def test_duplicate_vulnerability_ids_rejected(self, small_population, catalog):
        campaign = ExploitCampaign(small_population, catalog)
        with pytest.raises(FaultModelError, match="duplicate vulnerability ids"):
            campaign.run(["CVE-TEST-OPENSSL", "CVE-TEST-OPENSSL"])

    def test_worst_case_rejects_nonpositive_budget(self, small_population, catalog):
        campaign = ExploitCampaign(small_population, catalog)
        with pytest.raises(FaultModelError, match="max vulnerabilities"):
            campaign.run_worst_case(max_vulnerabilities=0)
        with pytest.raises(FaultModelError, match="max vulnerabilities"):
            campaign.run_worst_case(max_vulnerabilities=-2)

    def test_worst_case_rejects_empty_catalog(self, small_population):
        campaign = ExploitCampaign(small_population, VulnerabilityCatalog())
        with pytest.raises(FaultModelError, match="catalog is empty"):
            campaign.run_worst_case(max_vulnerabilities=1)

    def test_shared_matrix_reproduces_fresh_campaigns(self, small_population, catalog):
        from repro.faults.matrix import PopulationMatrix

        matrix = PopulationMatrix.build(small_population, catalog)
        shared = ExploitCampaign(small_population, catalog, matrix=matrix)
        fresh = ExploitCampaign(small_population, catalog)
        assert shared.run(_ids(catalog)) == fresh.run(_ids(catalog))

    def test_flaky_exploit_stream_matches_scalar_model(self, small_population):
        # The matrix-backed campaign must draw the same random stream as the
        # scalar model did: one draw per exposed replica, in join order.
        catalog = VulnerabilityCatalog(
            [
                make_vulnerability(
                    ComponentKind.OPERATING_SYSTEM, "linux", exploit_probability=0.5
                )
            ]
        )
        import random

        rng = random.Random(3)
        expected = {
            replica_id
            for replica_id in ("r0", "r1", "r2")  # join order of exposed replicas
            if rng.random() < 0.5
        }
        outcome = ExploitCampaign(small_population, catalog, seed=3).run(_ids(catalog))
        assert set(outcome.compromised_replicas) == expected

    def test_single_vulnerability_breakdown(self, small_population, catalog):
        verdicts = single_vulnerability_breakdown(
            small_population, catalog, family=ProtocolFamily.BFT
        )
        assert verdicts["CVE-TEST-OPENSSL"] is True
        assert verdicts["CVE-TEST-LINUX"] is True

    def test_diverse_population_survives_single_vulnerability(self, unique_population):
        catalog = VulnerabilityCatalog.for_population(unique_population)
        verdicts = single_vulnerability_breakdown(unique_population, catalog)
        assert not any(verdicts.values())


class TestFaultSchedules:
    def test_byzantine_schedule(self):
        schedule = FaultSchedule([FaultSpec(replica_id="a"), FaultSpec(replica_id="b")])
        assert schedule.is_faulty_at("a", 0.0)
        assert schedule.kind_at("b", 0.0) is FaultKind.BYZANTINE
        assert not schedule.is_faulty_at("c", 0.0)
        assert len(schedule) == 2

    def test_fault_activation_window(self):
        spec = FaultSpec(replica_id="x", start_time=5.0, end_time=10.0)
        schedule = FaultSchedule([spec])
        assert not schedule.is_faulty_at("x", 4.0)
        assert schedule.is_faulty_at("x", 5.0)
        assert not schedule.is_faulty_at("x", 10.0)

    def test_from_campaign(self, small_population, catalog):
        campaign = ExploitCampaign(small_population, catalog)
        outcome = campaign.run(["CVE-TEST-OPENSSL"])
        schedule = FaultSchedule.from_campaign(outcome)
        assert len(schedule) == 3
        assert all(schedule.is_faulty_at(replica_id, 0.0) for replica_id in ("r0", "r1", "r2"))

    def test_duplicate_replica_rejected(self):
        schedule = FaultSchedule([FaultSpec(replica_id="a")])
        with pytest.raises(FaultModelError):
            schedule.add(FaultSpec(replica_id="a"))

    def test_invalid_spec_rejected(self):
        with pytest.raises(FaultModelError):
            FaultSpec(replica_id="", start_time=0.0)
        with pytest.raises(FaultModelError):
            FaultSpec(replica_id="x", start_time=5.0, end_time=1.0)
