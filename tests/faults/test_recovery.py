"""Tests for patch rollout and proactive recovery (vulnerability windows)."""

from __future__ import annotations

import random

import pytest

from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.datasets.software_ecosystem import skewed_ecosystem
from repro.faults.recovery import (
    ExposureTimeline,
    PatchRollout,
    ProactiveRecoveryPolicy,
    _open_power_timeline,
)


def _random_population(seed: int) -> ReplicaPopulation:
    """A skewed-ecosystem population with non-dyadic powers (sum order shows)."""
    rng = random.Random(seed)
    size = rng.randint(8, 40)
    powers = [rng.choice((0.1, 1 / 3, 0.7, 2.9)) * rng.randint(1, 5) for _ in range(size)]
    return skewed_ecosystem().sample_population(size, seed=seed, power=powers)


@pytest.fixture
def power_of_calls(monkeypatch):
    """Every replica id ``ReplicaPopulation.power_of`` is asked for, in order."""
    calls = []
    original = ReplicaPopulation.power_of

    def spy(population, replica_id):
        calls.append(replica_id)
        return original(population, replica_id)

    monkeypatch.setattr(ReplicaPopulation, "power_of", spy)
    return calls


class TestExposureTimeline:
    def _timeline(self) -> ExposureTimeline:
        return ExposureTimeline(
            times=(0.0, 1.0, 2.0, 3.0),
            exposed_power=(4.0, 4.0, 2.0, 0.0),
            total_power=4.0,
        )

    def test_peak_fraction(self):
        assert self._timeline().peak_fraction() == pytest.approx(1.0)

    def test_exposure_area_trapezoidal(self):
        # Areas: 1*4 + 1*3 + 1*1 = 8 power-time units -> /4 total power = 2.0
        assert self._timeline().exposure_area() == pytest.approx(2.0)

    def test_time_above_fraction(self):
        timeline = self._timeline()
        assert timeline.time_above_fraction(0.9) == pytest.approx(2.0)
        assert timeline.time_above_fraction(0.4) == pytest.approx(3.0)
        with pytest.raises(FaultModelError):
            timeline.time_above_fraction(1.5)

    def test_degenerate_timeline(self):
        single = ExposureTimeline(times=(0.0,), exposed_power=(1.0,), total_power=1.0)
        assert single.exposure_area() == 0.0
        assert single.time_above_fraction(0.5) == 0.0


class TestPatchRollout:
    def test_only_exposed_replicas_are_tracked(self, small_population, openssl_vulnerability):
        rollout = PatchRollout(small_population, openssl_vulnerability, seed=1)
        assert set(rollout.exposed_replica_ids) == {"r0", "r1", "r2"}
        assert rollout.adoption_time_of("r3") is None

    def test_exposure_shrinks_to_zero(self, small_population, openssl_vulnerability):
        rollout = PatchRollout(
            small_population, openssl_vulnerability, mean_adoption_latency=5.0, seed=2
        )
        assert rollout.exposed_power_at(0.0) == pytest.approx(3.0)
        assert rollout.exposed_power_at(rollout.all_patched_time() + 1.0) == 0.0

    def test_zero_latency_patches_immediately(self, small_population, openssl_vulnerability):
        rollout = PatchRollout(
            small_population, openssl_vulnerability, mean_adoption_latency=0.0
        )
        assert rollout.exposed_power_at(1e-9) == 0.0

    def test_before_disclosure_nothing_is_exposed(self, small_population, openssl_vulnerability):
        rollout = PatchRollout(
            small_population,
            openssl_vulnerability,
            disclosure_time=10.0,
            patch_release_time=10.0,
            seed=3,
        )
        assert rollout.exposed_power_at(5.0) == 0.0

    def test_faster_rollout_has_smaller_exposure_area(
        self, small_population, openssl_vulnerability
    ):
        slow = PatchRollout(
            small_population, openssl_vulnerability, mean_adoption_latency=20.0, seed=4
        ).timeline(horizon=200.0)
        fast = PatchRollout(
            small_population, openssl_vulnerability, mean_adoption_latency=2.0, seed=4
        ).timeline(horizon=200.0)
        assert fast.exposure_area() < slow.exposure_area()

    def test_deterministic_given_seed(self, small_population, openssl_vulnerability):
        a = PatchRollout(small_population, openssl_vulnerability, seed=9)
        b = PatchRollout(small_population, openssl_vulnerability, seed=9)
        assert [a.adoption_time_of(r) for r in a.exposed_replica_ids] == [
            b.adoption_time_of(r) for r in b.exposed_replica_ids
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_timeline_equals_the_per_instant_power(self, seed, openssl_vulnerability):
        population = _random_population(seed)
        rollout = PatchRollout(
            population,
            openssl_vulnerability,
            disclosure_time=1.3,
            patch_release_time=2.1,
            mean_adoption_latency=3.7,
            seed=seed,
        )
        timeline = rollout.timeline(horizon=25.0, samples=97)
        instants = timeline.times + tuple(
            rollout.adoption_time_of(replica_id) for replica_id in rollout.exposed_replica_ids
        )
        # Reference: sum the exposed replicas' powers in exposure order.
        reference = [
            sum(
                population.power_of(replica_id)
                for replica_id in rollout.exposed_replica_ids
                if t < rollout.adoption_time_of(replica_id)
            )
            for t in instants
        ]
        assert list(timeline.exposed_power) == reference[: len(timeline.times)]
        assert [rollout.exposed_power_at(t) for t in instants] == reference

    def test_timeline_reads_each_exposed_power_once(
        self, small_population, openssl_vulnerability, power_of_calls
    ):
        rollout = PatchRollout(small_population, openssl_vulnerability, seed=5)
        rollout.timeline(samples=200)
        assert power_of_calls == list(rollout.exposed_replica_ids)

    def test_invalid_parameters(self, small_population, openssl_vulnerability):
        with pytest.raises(FaultModelError):
            PatchRollout(
                small_population,
                openssl_vulnerability,
                disclosure_time=10.0,
                patch_release_time=5.0,
            )
        with pytest.raises(FaultModelError):
            PatchRollout(
                small_population, openssl_vulnerability, mean_adoption_latency=-1.0
            )
        with pytest.raises(FaultModelError):
            PatchRollout(small_population, openssl_vulnerability).timeline(samples=1)


class TestProactiveRecovery:
    def test_rotation_length(self, unique_population):
        policy = ProactiveRecoveryPolicy(unique_population, recovery_period=2.0)
        assert policy.rotation_length == pytest.approx(16.0)

    def test_next_recovery_is_periodic(self, unique_population):
        policy = ProactiveRecoveryPolicy(unique_population, recovery_period=1.0)
        first = policy.next_recovery_after("replica-3", 0.0)
        assert first == pytest.approx(3.0)
        later = policy.next_recovery_after("replica-3", 4.0)
        assert later == pytest.approx(3.0 + policy.rotation_length)

    def test_compromised_power_decreases_over_time(self, unique_population):
        policy = ProactiveRecoveryPolicy(unique_population, recovery_period=1.0)
        compromised = ["replica-0", "replica-1", "replica-2"]
        start = policy.compromised_power_at(compromised, 0.0, 0.0)
        later = policy.compromised_power_at(compromised, 0.0, 2.5)
        end = policy.compromised_power_at(compromised, 0.0, policy.rotation_length + 1.0)
        assert start == pytest.approx(3.0)
        assert later < start
        assert end == 0.0

    def test_timeline_bounded_by_rotation(self, unique_population):
        policy = ProactiveRecoveryPolicy(unique_population, recovery_period=0.5)
        timeline = policy.timeline(["replica-0", "replica-7"])
        assert timeline.peak_fraction() == pytest.approx(2.0 / 8.0)
        assert timeline.exposed_power[-1] == 0.0

    def test_shorter_period_means_smaller_area(self, unique_population):
        compromised = ["replica-0", "replica-4", "replica-7"]
        slow = ProactiveRecoveryPolicy(unique_population, recovery_period=4.0).timeline(
            compromised, horizon=64.0
        )
        fast = ProactiveRecoveryPolicy(unique_population, recovery_period=0.5).timeline(
            compromised, horizon=64.0
        )
        assert fast.exposure_area() < slow.exposure_area()

    def test_unknown_replica_rejected(self, unique_population):
        policy = ProactiveRecoveryPolicy(unique_population)
        with pytest.raises(FaultModelError):
            policy.next_recovery_after("ghost", 0.0)
        with pytest.raises(FaultModelError):
            policy.timeline(["replica-0", "ghost"])

    @pytest.mark.parametrize(
        "attack_time, horizon", [(0.0, -5.0), (0.0, 0.0), (3.0, 3.0), (3.0, 1.0)]
    )
    def test_horizon_at_or_before_the_attack_rejected(
        self, unique_population, attack_time, horizon
    ):
        policy = ProactiveRecoveryPolicy(unique_population)
        with pytest.raises(FaultModelError, match="horizon"):
            policy.timeline(["replica-0"], attack_time=attack_time, horizon=horizon)

    @pytest.mark.parametrize("seed", range(6))
    def test_timeline_equals_the_per_instant_power(self, seed):
        population = _random_population(seed)
        compromised = random.Random(seed).sample(
            population.replica_ids(), len(population) // 2
        )
        policy = ProactiveRecoveryPolicy(population, recovery_period=0.5, start_time=0.25)
        # Step 0.25 from the attack at 1.0: every recovery instant
        # 0.25 + k * 0.5 after the attack is itself a sample.
        timeline = policy.timeline(compromised, attack_time=1.0, horizon=31.0, samples=121)
        recoveries = {
            replica_id: policy.next_recovery_after(replica_id, 1.0)
            for replica_id in compromised
        }
        assert set(recoveries.values()) <= set(timeline.times)
        # Reference: sum the compromised replicas' powers in the given order.
        reference = []
        for t in timeline.times:
            total = 0.0
            for replica_id in compromised:
                if t < recoveries[replica_id]:
                    total += population.power_of(replica_id)
            reference.append(total)
        assert list(timeline.exposed_power) == reference
        assert [
            policy.compromised_power_at(compromised, 1.0, t) for t in timeline.times
        ] == reference

    def test_timeline_schedules_each_recovery_once(
        self, unique_population, monkeypatch, power_of_calls
    ):
        calls = []
        original = ProactiveRecoveryPolicy.next_recovery_after

        def spy(policy, replica_id, time):
            calls.append((replica_id, time))
            return original(policy, replica_id, time)

        monkeypatch.setattr(ProactiveRecoveryPolicy, "next_recovery_after", spy)
        policy = ProactiveRecoveryPolicy(unique_population, recovery_period=0.5)
        compromised = ["replica-0", "replica-4", "replica-7"]
        policy.timeline(compromised, attack_time=2.0, samples=200)
        assert calls == [(replica_id, 2.0) for replica_id in compromised]
        assert power_of_calls == compromised

    def test_invalid_period_rejected(self, unique_population):
        with pytest.raises(FaultModelError):
            ProactiveRecoveryPolicy(unique_population, recovery_period=0.0)


def _schedule(seed, times):
    """Random ``(closes_at, power)`` entries with non-dyadic powers.

    Windows come unsorted; some close before the first sample, some exactly
    at a sample instant, some after the last, and a few share a close.
    """
    rng = random.Random(seed)
    entries = []
    for _ in range(rng.randint(1, 60)):
        roll = rng.random()
        if roll < 0.15:
            closes_at = times[0] - rng.uniform(0.0, 5.0)
        elif roll < 0.45:
            closes_at = rng.choice(times)
        elif roll < 0.55:
            closes_at = times[-1] + rng.uniform(0.0, 5.0)
        elif roll < 0.6 and entries:
            closes_at = rng.choice(entries)[0]
        else:
            closes_at = rng.uniform(times[0], times[-1])
        entries.append((closes_at, rng.uniform(0.1, 3.0)))
    return entries


class TestOpenPowerTimeline:
    """Sums redone only when a window closes equal the per-sample sums."""

    OPEN_POWERS = (PatchRollout._exposed_power, ProactiveRecoveryPolicy._compromised_power)

    @pytest.mark.parametrize("open_power", OPEN_POWERS)
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_per_sample_sum(self, open_power, seed):
        rng = random.Random(seed)
        start, step = rng.uniform(-3.0, 3.0), rng.uniform(0.01, 0.7)
        times = [start + index * step for index in range(rng.randint(2, 150))]
        schedule = _schedule(seed, times)
        reference = [open_power(schedule, t) for t in times]
        # repr tells 0 from 0.0 and shows every bit of a float.
        assert list(map(repr, _open_power_timeline(schedule, times, open_power))) == list(
            map(repr, reference)
        )

    @pytest.mark.parametrize("open_power", OPEN_POWERS)
    def test_empty_schedule_and_everything_closed_early(self, open_power):
        times = [1.0 + index * 0.5 for index in range(7)]
        for schedule in ([], [(0.5, 0.3), (1.0, 0.7), (-2.0, 1 / 3)]):
            assert list(map(repr, _open_power_timeline(schedule, times, open_power))) == [
                repr(open_power(schedule, t)) for t in times
            ]

    def test_sums_are_redone_only_when_a_window_closes(self):
        calls = []

        def open_power(schedule, t):
            calls.append(t)
            return ProactiveRecoveryPolicy._compromised_power(schedule, t)

        times = [float(index) for index in range(100)]
        schedule = [(30.0, 0.1), (10.5, 0.2), (30.0, 0.3), (1e9, 0.4)]
        timeline = _open_power_timeline(schedule, times, open_power)
        # The first sample, then the samples at or just after 10.5 and 30.
        assert calls == [0.0, 11.0, 30.0]
        assert timeline == tuple(
            ProactiveRecoveryPolicy._compromised_power(schedule, t) for t in times
        )

    def test_patch_timeline_sums_once_per_adoption(
        self, small_population, openssl_vulnerability, monkeypatch
    ):
        rollout = PatchRollout(small_population, openssl_vulnerability, seed=5)
        sums = []
        original = PatchRollout._exposed_power

        def spy(schedule, time):
            sums.append(time)
            return original(schedule, time)

        monkeypatch.setattr(PatchRollout, "_exposed_power", staticmethod(spy))
        timeline = rollout.timeline(samples=200)
        adoptions = {rollout.adoption_time_of(r) for r in rollout.exposed_replica_ids}
        assert len(sums) <= len(adoptions) + 1 < len(timeline.times)
