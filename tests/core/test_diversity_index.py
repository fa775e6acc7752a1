"""Unit tests for repro.core.diversity_index."""

from __future__ import annotations

import pytest

from repro.core.diversity_index import (
    berger_parker_dominance,
    diversity_profile,
    gini_simpson_index,
    herfindahl_hirschman_index,
    hill_number,
    inverse_simpson_index,
    richness,
    simpson_index,
)
from repro.core.exceptions import DistributionError
from repro.datasets.bitcoin_pools import bitcoin_pool_distribution


class TestSimpsonFamily:
    def test_simpson_of_uniform(self):
        assert simpson_index([0.25] * 4) == pytest.approx(0.25)

    def test_simpson_of_monoculture_is_one(self):
        assert simpson_index([1.0]) == pytest.approx(1.0)

    def test_gini_simpson_complements_simpson(self):
        probs = [0.5, 0.3, 0.2]
        assert gini_simpson_index(probs) == pytest.approx(1.0 - simpson_index(probs))

    def test_inverse_simpson_of_uniform_equals_support(self):
        assert inverse_simpson_index([0.2] * 5) == pytest.approx(5.0)

    def test_more_even_distribution_has_lower_simpson(self):
        assert simpson_index([0.25] * 4) < simpson_index([0.7, 0.1, 0.1, 0.1])


class TestDominanceAndHHI:
    def test_berger_parker_is_largest_share(self):
        assert berger_parker_dominance([0.5, 0.3, 0.2]) == pytest.approx(0.5)

    def test_hhi_of_monopoly_is_10000(self):
        assert herfindahl_hirschman_index([1.0]) == pytest.approx(10000.0)

    def test_hhi_of_uniform_four(self):
        assert herfindahl_hirschman_index([0.25] * 4) == pytest.approx(2500.0)

    def test_bitcoin_pools_are_highly_concentrated(self):
        # The Feb-2023 snapshot is a textbook concentrated market.
        probs = bitcoin_pool_distribution().probabilities()
        assert herfindahl_hirschman_index(probs) > 1500.0


class TestHillNumbers:
    def test_hill_zero_is_richness(self):
        assert hill_number([0.5, 0.5, 0.0], 0) == pytest.approx(2.0)

    def test_hill_one_of_uniform(self):
        assert hill_number([0.125] * 8, 1.0) == pytest.approx(8.0)

    def test_hill_two_is_inverse_simpson(self):
        probs = [0.6, 0.3, 0.1]
        assert hill_number(probs, 2.0) == pytest.approx(inverse_simpson_index(probs))

    def test_hill_infinity_is_inverse_dominance(self):
        probs = [0.5, 0.25, 0.25]
        assert hill_number(probs, float("inf")) == pytest.approx(2.0)

    def test_hill_numbers_decrease_with_order(self):
        probs = [0.6, 0.2, 0.1, 0.1]
        assert hill_number(probs, 0) >= hill_number(probs, 1) >= hill_number(probs, 2)

    def test_rejects_negative_order(self):
        with pytest.raises(DistributionError):
            hill_number([0.5, 0.5], -0.5)


class TestEvennessAndProfile:

    def test_richness_counts_nonzero_shares(self):
        assert richness([0.5, 0.5, 0.0, 0.0]) == 2

    def test_profile_contains_all_indices(self):
        profile = diversity_profile([0.5, 0.3, 0.2])
        expected_keys = {
            "shannon_entropy",
            "normalized_entropy",
            "simpson",
            "gini_simpson",
            "inverse_simpson",
            "berger_parker",
            "hhi",
            "richness",
            "hill_1",
            "hill_2",
        }
        assert expected_keys == set(profile)

    def test_profile_is_internally_consistent(self):
        profile = diversity_profile([0.4, 0.3, 0.2, 0.1])
        assert profile["gini_simpson"] == pytest.approx(1.0 - profile["simpson"])
        assert profile["richness"] == 4
