"""Unit tests for the Example 1 / Figure 1 Bitcoin pool dataset."""

from __future__ import annotations

import pytest

from repro.core.exceptions import DistributionError
from repro.datasets.bitcoin_pools import (
    BITCOIN_POOL_SHARES_FEB_2023,
    RESIDUAL_SHARE_FEB_2023,
    TOP_POOL_TOTAL_SHARE_FEB_2023,
    bitcoin_pool_distribution,
    figure1_distribution,
    figure1_total_miners,
    pool_share_mapping,
)


class TestSnapshotNumbers:
    def test_seventeen_pools(self):
        assert len(BITCOIN_POOL_SHARES_FEB_2023) == 17

    def test_shares_sum_close_to_the_published_total(self):
        # The paper states 99.13%; the printed per-pool values add to 99.145%
        # (a rounding artifact of the source chart).  We keep the printed
        # values verbatim and tolerate the 0.015-point discrepancy.
        total = sum(share for _, share in BITCOIN_POOL_SHARES_FEB_2023)
        assert total == pytest.approx(99.145, abs=1e-9)
        assert abs(total - TOP_POOL_TOTAL_SHARE_FEB_2023) < 0.02

    def test_residual_completes_to_one_hundred_percent(self):
        assert TOP_POOL_TOTAL_SHARE_FEB_2023 + RESIDUAL_SHARE_FEB_2023 == pytest.approx(100.0)

    def test_largest_pool_share_matches_paper(self):
        # Foundry USA controls over 34% (the paper's footnote).
        assert BITCOIN_POOL_SHARES_FEB_2023[0][1] == pytest.approx(34.239)

    def test_shares_are_sorted_descending(self):
        shares = [share for _, share in BITCOIN_POOL_SHARES_FEB_2023]
        assert shares == sorted(shares, reverse=True)

    def test_top_ten_concentration_exceeds_96_percent(self):
        # The paper's footnote: the ten largest pools hold over 96% of the power.
        ranked = sorted((share for _, share in BITCOIN_POOL_SHARES_FEB_2023), reverse=True)
        assert sum(ranked[:10]) > 96.0

    def test_pool_names_are_unique(self):
        names = [name for name, _ in BITCOIN_POOL_SHARES_FEB_2023]
        assert len(set(names)) == len(names)


class TestDistributions:
    def test_pool_only_distribution_entropy_below_three_bits(self):
        # Example 1: the oligopoly keeps best-case entropy under 3 bits.
        assert bitcoin_pool_distribution().entropy() < 3.0

    def test_figure1_distribution_size(self):
        dist = figure1_distribution(101)
        assert len(dist) == 118  # 17 pools + 101 residual miners
        assert figure1_total_miners(101) == 118

    def test_figure1_mass_sums_to_one(self):
        dist = figure1_distribution(500)
        assert sum(dist.probabilities()) == pytest.approx(1.0)

    def test_figure1_entropy_increases_with_residual_miners(self):
        assert figure1_distribution(1000).entropy() > figure1_distribution(1).entropy()

    def test_figure1_entropy_stays_below_three_bits(self):
        for x in (1, 10, 100, 1000):
            assert figure1_distribution(x).entropy() < 3.0

    def test_figure1_residual_share_is_uniform(self):
        dist = figure1_distribution(10)
        residual_shares = [dist.shares()[f"residual-miner-{i}"] for i in range(10)]
        assert all(share == pytest.approx(residual_shares[0]) for share in residual_shares)
        expected_total = RESIDUAL_SHARE_FEB_2023 / (
            sum(share for _, share in BITCOIN_POOL_SHARES_FEB_2023) + RESIDUAL_SHARE_FEB_2023
        )
        assert sum(residual_shares) == pytest.approx(expected_total)

    def test_figure1_zero_residual_share_supported(self):
        dist = figure1_distribution(5, residual_share=0.0)
        assert len(dist) == 17

    def test_figure1_rejects_bad_arguments(self):
        with pytest.raises(DistributionError):
            figure1_distribution(0)
        with pytest.raises(DistributionError):
            figure1_distribution(10, residual_share=-1.0)
        with pytest.raises(DistributionError):
            figure1_total_miners(0)

    def test_pool_share_mapping_is_a_copy(self):
        mapping = pool_share_mapping()
        mapping["foundry-usa"] = 0.0
        assert pool_share_mapping()["foundry-usa"] == pytest.approx(34.239)
