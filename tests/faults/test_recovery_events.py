"""Recovery policy driven by the simulation event scheduler.

Pairs :class:`~repro.faults.recovery.ProactiveRecoveryPolicy` with
:class:`~repro.sim.events.Scheduler`: an exploit campaign (deterministic
seed) injects a compromise event, each compromised replica's scheduled
rejuvenation is posted as a future event, and the discrete exposed set the
events maintain must agree with the policy's closed-form
``compromised_power_at`` at every instant between events.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import ExploitCampaign
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.recovery import ProactiveRecoveryPolicy
from repro.faults.scenarios import ecosystem_scenario
from repro.sim.events import Scheduler

ATTACK_TIME = 7.0
PERIOD = 5.0


def _drive(population, compromised, *, attack_time=ATTACK_TIME, period=PERIOD):
    """Replay attack + recoveries on a scheduler; return the event trace.

    The trace records ``(time, exposed_ids, exposed_power)`` after every
    event, in execution order.
    """
    policy = ProactiveRecoveryPolicy(population, recovery_period=period)
    scheduler = Scheduler()
    exposed = set()
    trace = []

    def snapshot():
        power = sum(population.power_of(replica_id) for replica_id in exposed)
        trace.append((scheduler.now, frozenset(exposed), power))

    def recover(replica_id):
        def _event():
            exposed.discard(replica_id)
            snapshot()

        return _event

    def attack():
        exposed.update(compromised)
        snapshot()
        for replica_id in sorted(compromised):
            scheduler.call_at(
                policy.next_recovery_after(replica_id, scheduler.now),
                recover(replica_id),
                label=f"recover:{replica_id}",
            )

    scheduler.call_at(attack_time, attack, label="attack")
    scheduler.run()
    return policy, scheduler, trace


class TestRecoveryEvents:
    @pytest.fixture()
    def scenario(self):
        return ecosystem_scenario(
            ecosystem="default",
            population_size=16,
            seed=3,
            exploit_probability=0.6,
        )

    @pytest.fixture()
    def compromised(self, scenario):
        campaign = ExploitCampaign(scenario.population, scenario.catalog, seed=11)
        outcome = campaign.run([v.vuln_id for v in scenario.catalog])
        assert outcome.compromised_replicas  # the seed must actually compromise
        return tuple(sorted(outcome.compromised_replicas))

    def test_exploit_campaign_is_deterministic_for_a_seed(self, scenario):
        ids = [v.vuln_id for v in scenario.catalog]
        first = ExploitCampaign(scenario.population, scenario.catalog, seed=11).run(ids)
        second = ExploitCampaign(scenario.population, scenario.catalog, seed=11).run(ids)
        assert first.compromised_replicas == second.compromised_replicas

    def test_every_compromised_replica_recovers_exactly_once(
        self, scenario, compromised
    ):
        policy, scheduler, trace = _drive(scenario.population, compromised)
        # One attack event plus one recovery per compromised replica, and
        # every event appends one snapshot.
        assert len(trace) == 1 + len(compromised)
        assert trace[0][1] == frozenset(compromised)
        assert trace[-1][1] == frozenset()
        assert trace[-1][2] == 0.0

    def test_recovered_replicas_drop_out_of_the_exposed_set(
        self, scenario, compromised
    ):
        policy, scheduler, trace = _drive(scenario.population, compromised)
        sizes = [len(ids) for _, ids, _ in trace]
        # The exposed set only ever shrinks after the attack snapshot, one
        # replica at a time, down to empty.
        assert sizes == list(range(len(compromised), -1, -1))
        for (_, before, _), (_, after, _) in zip(trace, trace[1:]):
            (recovered,) = before - after
            assert recovered not in after

    def test_event_driven_power_matches_the_closed_form(
        self, scenario, compromised
    ):
        policy, scheduler, trace = _drive(scenario.population, compromised)
        # Sample strictly after each event (events fire *at* the recovery
        # instant, and compromised_power_at counts a replica while
        # ``time < recovered_at``), so probe midway to the next event.
        for (time_a, _, power_a), (time_b, _, _) in zip(trace, trace[1:]):
            midpoint = (time_a + time_b) / 2.0
            assert power_a == pytest.approx(
                policy.compromised_power_at(compromised, ATTACK_TIME, midpoint)
            )
        final_time, _, final_power = trace[-1]
        assert final_power == policy.compromised_power_at(
            compromised, ATTACK_TIME, final_time + 0.001
        )

    def test_exposure_is_bounded_by_one_rotation(self, scenario, compromised):
        policy, scheduler, trace = _drive(scenario.population, compromised)
        last_recovery = trace[-1][0]
        assert last_recovery <= ATTACK_TIME + policy.rotation_length

    def test_replay_is_deterministic(self, scenario, compromised):
        first = _drive(scenario.population, compromised)[2]
        second = _drive(scenario.population, compromised)[2]
        assert first == second


class TestSmallPopulationRecovery:
    def test_shared_component_compromise_recovers_in_id_order(
        self, small_population, openssl_vulnerability
    ):
        """With exploit probability 1 the compromise is the full openssl
        cohort; recoveries then land strictly in rotation order."""
        catalog = VulnerabilityCatalog([openssl_vulnerability])
        campaign = ExploitCampaign(small_population, catalog, seed=0)
        outcome = campaign.run([openssl_vulnerability.vuln_id])
        compromised = tuple(sorted(outcome.compromised_replicas))
        assert compromised == ("r0", "r1", "r2")

        policy, scheduler, trace = _drive(
            small_population, compromised, attack_time=0.5, period=2.0
        )
        recovery_times = [time for time, _, _ in trace[1:]]
        assert recovery_times == sorted(recovery_times)
        # r0's first rotation slot (t=0) precedes the attack, so it waits a
        # full rotation; r1 and r2 are cleaned at their first slots.
        assert recovery_times == [
            policy.next_recovery_after("r1", 0.5),
            policy.next_recovery_after("r2", 0.5),
            policy.next_recovery_after("r0", 0.5),
        ]
        assert trace[-1][1] == frozenset()
