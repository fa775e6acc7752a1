"""Tests for decentralized pools / non-outsourceable mining."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ProtocolError
from repro.nakamoto.decentralized_pool import (
    decentralization_report,
    decentralize_pools,
    operator_takeover_fraction,
    pooled_population,
)
from repro.nakamoto.miner import Miner
from repro.nakamoto.pool import MiningPool, pools_from_snapshot


def _two_pool_landscape():
    big = MiningPool("big-pool")
    for index in range(10):
        big.add_member(Miner(f"big-{index}", 6.0))
    small = MiningPool("small-pool")
    for index in range(4):
        small.add_member(Miner(f"small-{index}", 5.0))
    solo = [Miner("solo-0", 10.0), Miner("solo-1", 10.0)]
    return [big, small], solo


class TestDecentralizePools:
    def test_all_pools_decentralized_by_default(self):
        pools, solo = _two_pool_landscape()
        population = decentralize_pools(pools, solo)
        assert len(population) == 16  # 10 + 4 members + 2 solo
        assert population.total_power() == pytest.approx(100.0)

    def test_selective_decentralization(self):
        pools, solo = _two_pool_landscape()
        population = decentralize_pools(pools, solo, decentralized_pool_ids=["big-pool"])
        # big pool split into 10 members; small pool stays aggregated.
        assert len(population) == 13
        assert population.power_of("small-pool") == pytest.approx(20.0)

    def test_unknown_pool_rejected(self):
        pools, solo = _two_pool_landscape()
        with pytest.raises(ProtocolError):
            decentralize_pools(pools, solo, decentralized_pool_ids=["ghost"])

    def test_empty_landscape_rejected(self):
        with pytest.raises(ProtocolError):
            decentralize_pools([], [])

    def test_pool_without_members_cannot_be_decentralized(self):
        with pytest.raises(ProtocolError):
            decentralize_pools([MiningPool("empty")], [])


class TestDecentralizationReport:
    def test_entropy_increases_and_dominance_decreases(self):
        pools, solo = _two_pool_landscape()
        report = decentralization_report(pools, solo)
        assert report.decentralized_entropy_bits > report.pooled_entropy_bits
        assert report.decentralized_largest_share < report.pooled_largest_share
        assert report.decentralized_replicas > report.pooled_replicas

    def test_decentralization_breaks_operator_majority(self):
        big = MiningPool("mega")
        for index in range(10):
            big.add_member(Miner(f"m-{index}", 6.0))
        solo = [Miner("solo", 40.0)]
        report = decentralization_report([big], solo)
        assert report.pooled_largest_share == pytest.approx(0.6)
        assert report.decentralized_largest_share < 0.5

    def test_snapshot_decentralization_matches_figure1_baseline(self):
        pools, solo = pools_from_snapshot(residual_miners=101, members_per_pool=1)
        report = decentralization_report(pools, solo, decentralized_pool_ids=[])
        # With nothing decentralized, the census is the Figure 1 situation.
        assert report.pooled_entropy_bits == pytest.approx(
            report.decentralized_entropy_bits
        )
        assert report.pooled_entropy_bits < 3.0

    def test_full_snapshot_decentralization_beats_three_bits(self):
        pools, solo = pools_from_snapshot(residual_miners=101, members_per_pool=20)
        report = decentralization_report(pools, solo)
        assert report.decentralized_entropy_bits > 3.0


class TestOperatorTakeover:
    def test_takeover_shrinks_with_decentralization(self):
        pools, solo = _two_pool_landscape()
        before = operator_takeover_fraction(pools, solo, 1, decentralized_pool_ids=[])
        after = operator_takeover_fraction(pools, solo, 1)
        assert before == pytest.approx(0.6)
        assert after < before

    def test_pooled_population_helper(self):
        pools, solo = _two_pool_landscape()
        population = pooled_population(pools, solo)
        assert len(population) == 4  # 2 pools + 2 solo miners

    def test_negative_coalition_rejected(self):
        pools, solo = _two_pool_landscape()
        with pytest.raises(ProtocolError):
            operator_takeover_fraction(pools, solo, -1)
