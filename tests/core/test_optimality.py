"""Unit tests for repro.core.optimality (Definitions 1 and 2)."""

from __future__ import annotations

import pytest

from repro.core.abundance import AbundanceVector
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import OptimalityError
from repro.core.optimality import (
    is_kappa_omega_optimal,
    is_kappa_optimal,
    minimum_kappa_for_entropy,
    optimality_gap,
)


class TestKappaOptimal:
    def test_uniform_distribution_is_kappa_optimal(self):
        dist = ConfigurationDistribution.uniform_labels(8)
        assert is_kappa_optimal(dist)
        assert is_kappa_optimal(dist, kappa=8)
        assert dist.support_size() == 8

    def test_wrong_kappa_fails(self):
        dist = ConfigurationDistribution.uniform_labels(8)
        assert not is_kappa_optimal(dist, kappa=4)

    def test_skewed_distribution_is_not_optimal(self):
        dist = ConfigurationDistribution({"a": 0.7, "b": 0.3})
        assert not is_kappa_optimal(dist)

    def test_zero_shares_do_not_count_toward_kappa(self):
        dist = ConfigurationDistribution({"a": 0.5, "b": 0.5, "c": 0.0})
        assert dist.support_size() == 2
        assert is_kappa_optimal(dist, kappa=2)

    def test_accepts_raw_probability_sequences(self):
        assert is_kappa_optimal([0.25, 0.25, 0.25, 0.25])
        assert not is_kappa_optimal([0.4, 0.3, 0.3])

    def test_rejects_bad_kappa(self):
        with pytest.raises(OptimalityError):
            is_kappa_optimal([1.0], kappa=0)


class TestKappaOmegaOptimal:
    def test_uniform_abundance_is_optimal(self):
        vector = AbundanceVector.uniform(["a", "b", "c"], abundance=4)
        assert is_kappa_omega_optimal(vector)
        assert is_kappa_omega_optimal(vector, kappa=3, omega=4)

    def test_wrong_omega_fails(self):
        vector = AbundanceVector.uniform(["a", "b", "c"], abundance=4)
        assert not is_kappa_omega_optimal(vector, kappa=3, omega=5)

    def test_uneven_abundance_fails(self):
        vector = AbundanceVector({"a": 4, "b": 4, "c": 5})
        assert not is_kappa_omega_optimal(vector)

    def test_classic_bft_abundance_one(self):
        # Traditional BFT-SMR: one replica per unique configuration.
        vector = AbundanceVector.uniform([f"r{i}" for i in range(4)], abundance=1)
        assert is_kappa_omega_optimal(vector, kappa=4, omega=1)


class TestOptimalityGap:
    def test_gap_zero_for_uniform(self):
        gap = optimality_gap(ConfigurationDistribution.uniform_labels(16))
        assert gap.deficit == pytest.approx(0.0)
        assert gap.evenness == pytest.approx(1.0)

    def test_gap_positive_for_skew(self):
        gap = optimality_gap(ConfigurationDistribution({"a": 0.9, "b": 0.1}))
        assert gap.deficit > 0.0
        assert 0.0 < gap.evenness < 1.0
        assert gap.kappa == 2

    def test_gap_fields_are_consistent(self):
        gap = optimality_gap(ConfigurationDistribution({"a": 0.5, "b": 0.3, "c": 0.2}))
        assert gap.optimal_entropy == pytest.approx(gap.entropy + gap.deficit)


class TestMinimumKappa:
    def test_exact_power_of_two(self):
        assert minimum_kappa_for_entropy(3.0) == 8

    def test_fractional_entropy_rounds_up(self):
        assert minimum_kappa_for_entropy(2.9) == 8
        assert minimum_kappa_for_entropy(3.1) == 9

    def test_zero_entropy_needs_one_configuration(self):
        assert minimum_kappa_for_entropy(0.0) == 1

    def test_rejects_negative(self):
        with pytest.raises(OptimalityError):
            minimum_kappa_for_entropy(-1.0)
