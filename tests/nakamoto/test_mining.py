"""Tests for miners, pools, the mining simulation and attacks."""

from __future__ import annotations

import pytest

from repro.core.exceptions import AnalysisError, ProtocolError
from repro.nakamoto.attack import double_spend_success_probability, majority_takeover
from repro.nakamoto.miner import Miner, miners_as_population
from repro.nakamoto.pool import MiningPool, pools_from_snapshot
from repro.nakamoto.simulation import MiningSimulation


class TestMinersAndPools:
    def test_miner_defaults_to_unique_configuration(self):
        a = Miner("a", 10.0)
        b = Miner("b", 10.0)
        assert a.configuration != b.configuration

    def test_miner_rejects_negative_power(self):
        with pytest.raises(ProtocolError):
            Miner("a", -1.0)

    def test_miners_as_population(self):
        population = miners_as_population([Miner("a", 60.0), Miner("b", 40.0)])
        assert population.total_power() == pytest.approx(100.0)

    def test_pool_aggregates_members(self):
        pool = MiningPool("pool-x")
        pool.add_member(Miner("m1", 5.0))
        pool.add_member(Miner("m2", 7.0))
        assert pool.total_hash_power() == pytest.approx(12.0)
        assert len(pool) == 2
        assert pool.as_replica().power == pytest.approx(12.0)

    def test_pool_rejects_duplicate_member(self):
        pool = MiningPool("pool-x")
        pool.add_member(Miner("m1", 5.0))
        with pytest.raises(ProtocolError):
            pool.add_member(Miner("m1", 1.0))

    def test_snapshot_pools(self):
        pools, solo = pools_from_snapshot(residual_miners=10)
        assert len(pools) == 17
        assert len(solo) == 10
        total = sum(p.total_hash_power() for p in pools) + sum(m.hash_power for m in solo)
        assert total == pytest.approx(100.015)  # printed shares + residual

    def test_snapshot_members_per_pool(self):
        pools, _ = pools_from_snapshot(members_per_pool=4)
        assert all(len(pool) == 4 for pool in pools)


class TestMiningSimulation:
    def _miners(self):
        return [Miner("big", 55.0), Miner("mid", 30.0), Miner("small", 15.0)]

    @staticmethod
    def _success_rate(sim, attacker_ids, trials=60):
        wins = sum(
            sim.run_double_spend(attacker_ids, confirmations=6).attack_succeeded
            for _ in range(trials)
        )
        return wins / trials

    def test_deterministic_given_seed(self):
        a = MiningSimulation(self._miners(), seed=3).run_double_spend(["mid"])
        b = MiningSimulation(self._miners(), seed=3).run_double_spend(["mid"])
        assert a == b

    def test_majority_attacker_usually_wins(self):
        sim = MiningSimulation(self._miners(), seed=4)
        assert self._success_rate(sim, ["big"]) > 0.8

    def test_small_attacker_usually_loses(self):
        sim = MiningSimulation(self._miners(), seed=5)
        assert self._success_rate(sim, ["small"]) < 0.2

    def test_attack_reverts_confirmations_on_success(self):
        sim = MiningSimulation(self._miners(), seed=6)
        result = sim.run_double_spend(["big", "mid"], confirmations=4)
        assert result.attack_succeeded
        assert result.reverted_blocks >= 4

    def test_attacker_coalition_must_be_nonempty(self):
        sim = MiningSimulation(self._miners(), seed=7)
        with pytest.raises(ProtocolError):
            sim.run_double_spend([])

    def test_all_miners_attacking_rejected(self):
        sim = MiningSimulation(self._miners(), seed=8)
        with pytest.raises(ProtocolError):
            sim.run_double_spend(["big", "mid", "small"])

    def test_simulation_requires_miners_and_power(self):
        with pytest.raises(ProtocolError):
            MiningSimulation([])
        with pytest.raises(ProtocolError):
            MiningSimulation([Miner("a", 0.0)])


class TestAttackAnalysis:
    def test_majority_attacker_always_succeeds(self):
        assert double_spend_success_probability(0.5, 6) == pytest.approx(1.0)
        assert double_spend_success_probability(0.7, 10) == pytest.approx(1.0)

    def test_zero_power_never_succeeds(self):
        assert double_spend_success_probability(0.0, 6) == 0.0

    def test_probability_decreases_with_confirmations(self):
        probs = [double_spend_success_probability(0.3, z) for z in range(1, 8)]
        assert probs == sorted(probs, reverse=True)

    def test_probability_increases_with_power(self):
        assert double_spend_success_probability(0.4, 6) > double_spend_success_probability(0.1, 6)

    def test_known_reference_value(self):
        # ~0.0005 for a 10% attacker at 6 confirmations (Rosenfeld's table).
        value = double_spend_success_probability(0.10, 6)
        assert 1e-4 < value < 1e-3

    def test_majority_takeover_report(self):
        report = majority_takeover({"a": 60.0, "b": 40.0}, ["a"])
        assert report.majority
        assert report.compromised_fraction == pytest.approx(0.6)
        assert report.double_spend_probability == pytest.approx(1.0)

    def test_majority_takeover_validation(self):
        with pytest.raises(AnalysisError):
            majority_takeover({}, [])
        with pytest.raises(AnalysisError):
            majority_takeover({"a": 1.0}, ["ghost"])
