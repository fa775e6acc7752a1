"""End-to-end integration tests spanning several subsystems.

Each test follows a complete pipeline a user of the library would run:
ecosystem -> population -> attestation -> census -> campaign -> protocol run
-> verdict, checking that the pieces compose and that the verdicts agree with
the analytical safety condition.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.attestation.device import AttestationDevice
from repro.attestation.quote import produce_quote
from repro.attestation.registry import AttestationRegistry
from repro.attestation.verifier import AttestationVerifier
from repro.bft.runner import run_consensus
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily, analyze_resilience
from repro.datasets.bitcoin_pools import figure1_distribution
from repro.datasets.software_ecosystem import default_ecosystem, skewed_ecosystem
from repro.diversity.monitor import DiversityMonitor
from repro.diversity.planner import EntropyPlanner
from repro.faults.campaign import ExploitCampaign
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.injection import FaultSchedule
from repro.nakamoto.attack import majority_takeover
from repro.nakamoto.miner import Miner, miners_as_population
from repro.nakamoto.simulation import MiningSimulation
from repro.permissionless.committee import committee_population, select_committee


class TestAnalyticalPipeline:
    def test_monoculture_ecosystem_fails_single_vulnerability_analysis(self):
        population = skewed_ecosystem().sample_population(100, seed=1)
        catalog = VulnerabilityCatalog.for_population(population)
        campaign = ExploitCampaign(population, catalog)
        outcome = campaign.run_worst_case(max_vulnerabilities=1)
        report = campaign.resilience_report(outcome, family=ProtocolFamily.BFT)
        assert not report.safe
        assert outcome.compromised_fraction > 1 / 3

    def test_planner_deployment_survives_single_vulnerability(self):
        planner = EntropyPlanner([f"cfg-{i}" for i in range(16)])
        plan = planner.plan(64)
        population = ReplicaPopulation.with_unique_configurations(1)  # placeholder replaced below
        # Build the population the plan describes: one replica per assignment slot.
        population = ReplicaPopulation(
            ReplicaPopulation.with_unique_configurations(64).replicas()
        )
        census = plan.as_distribution()
        assert max(census.probabilities()) < 1 / 3
        # With every configuration below the tolerance, no single fault can
        # violate the condition.
        worst_share = max(census.probabilities())
        report = analyze_resilience(
            population,
            {"worst": worst_share * population.total_power()},
            family=ProtocolFamily.BFT,
        )
        assert report.safe

    def test_attestation_census_feeds_the_monitor(self):
        ecosystem = default_ecosystem()
        population = ecosystem.sample_population(40, seed=3)
        verifier = AttestationVerifier()
        registry = AttestationRegistry(verifier)
        for replica in population:
            device = AttestationDevice(f"dev-{replica.replica_id}")
            verifier.register_device(device)
            quote = produce_quote(
                device, replica.replica_id, replica.configuration, verifier.issue_nonce()
            )
            registry.register_attested(quote, power=replica.power)
        census = registry.census()
        assert census.entropy() == pytest.approx(population.entropy(), abs=1e-9)
        monitor = DiversityMonitor()
        # The default ecosystem is diverse enough to avoid the critical alert.
        alerts = monitor.evaluate(census)
        assert all(alert.severity != "critical" for alert in alerts)


class TestProtocolPipeline:
    def test_campaign_to_consensus_safety_cliff(self):
        # A population where one shared client covers 5 of 7 replicas.
        unique = ReplicaPopulation.with_unique_configurations(7, prefix="node")
        shared = unique.get("node-0").configuration
        population = ReplicaPopulation(
            dataclasses.replace(replica, configuration=shared)
            if replica.replica_id in ("node-2", "node-3", "node-5", "node-6")
            else replica
            for replica in unique
        )
        catalog = VulnerabilityCatalog.for_population(population)
        campaign = ExploitCampaign(population, catalog)
        outcome = campaign.run_worst_case(max_vulnerabilities=1)
        schedule = FaultSchedule.from_campaign(outcome)
        result = run_consensus(population, schedule, protocol="pbft")
        analytic = campaign.resilience_report(outcome, family=ProtocolFamily.BFT)
        assert not analytic.safe
        assert not result.safety_ok

    def test_honest_committee_subset_still_agrees(self, unique_population):
        committee = select_committee(unique_population, seats=8, seed=11)
        members = committee_population(unique_population, committee)
        result = run_consensus(members.replica_ids(), protocol="pbft")
        assert result.safety_ok


class TestNakamotoPipeline:
    def test_figure1_census_matches_miner_population(self):
        distribution = figure1_distribution(50)
        miners = [
            Miner(str(key), share * 100.0) for key, share in distribution.shares().items()
        ]
        population = miners_as_population(miners)
        assert population.entropy() == pytest.approx(distribution.entropy(), abs=1e-9)

    def test_shared_pool_vulnerability_enables_double_spend(self):
        miners = [
            Miner("pool-a", 30.0),
            Miner("pool-b", 25.0),
            Miner("pool-c", 20.0),
            Miner("small-1", 15.0),
            Miner("small-2", 10.0),
        ]
        # pools a-c run the same coordination software: one exploit captures 75%.
        compromised = ["pool-a", "pool-b", "pool-c"]
        takeover = majority_takeover(
            {miner.miner_id: miner.hash_power for miner in miners}, compromised
        )
        assert takeover.majority
        simulation = MiningSimulation(miners, seed=13)
        result = simulation.run_double_spend(compromised, confirmations=6)
        assert result.attack_succeeded

    def test_isolated_pool_compromise_rarely_succeeds(self):
        miners = [Miner(f"pool-{i}", 10.0) for i in range(10)]
        simulation = MiningSimulation(miners, seed=17)
        successes = sum(
            simulation.run_double_spend(["pool-0"], confirmations=6).attack_succeeded
            for _ in range(40)
        )
        assert successes / 40 < 0.1
