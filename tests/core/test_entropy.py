"""Unit tests for repro.core.entropy."""

from __future__ import annotations

import math

import pytest

from repro.core.entropy import (
    effective_configurations,
    max_entropy,
    normalized_entropy,
    shannon_entropy,
)
from repro.core.exceptions import DistributionError


class TestShannonEntropy:
    def test_uniform_two_outcomes_is_one_bit(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_uniform_eight_outcomes_is_three_bits(self):
        # The Example 1 reference point: 8 unique replica configurations.
        assert shannon_entropy([1 / 8] * 8) == pytest.approx(3.0)

    def test_degenerate_distribution_has_zero_entropy(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_zero_probabilities_are_ignored(self):
        with_zeros = shannon_entropy([0.5, 0.5, 0.0, 0.0])
        without = shannon_entropy([0.5, 0.5])
        assert with_zeros == pytest.approx(without)

    def test_natural_log_base(self):
        assert shannon_entropy([0.5, 0.5], base=math.e) == pytest.approx(math.log(2))

    def test_normalize_rescales_raw_weights(self):
        assert shannon_entropy([2, 2, 2, 2], normalize=True) == pytest.approx(2.0)

    def test_rejects_negative_probability(self):
        with pytest.raises(DistributionError):
            shannon_entropy([0.7, -0.3, 0.6])

    def test_rejects_non_normalized_without_flag(self):
        with pytest.raises(DistributionError):
            shannon_entropy([0.2, 0.2])

    def test_rejects_empty_vector(self):
        with pytest.raises(DistributionError):
            shannon_entropy([])

    def test_rejects_nan(self):
        with pytest.raises(DistributionError):
            shannon_entropy([float("nan"), 1.0], normalize=True)

    def test_rejects_bad_base(self):
        with pytest.raises(DistributionError):
            shannon_entropy([0.5, 0.5], base=1.0)

    def test_skewed_distribution_below_uniform(self):
        assert shannon_entropy([0.9, 0.1]) < shannon_entropy([0.5, 0.5])


class TestMaxAndNormalizedEntropy:
    def test_max_entropy_is_log_of_support(self):
        assert max_entropy(8) == pytest.approx(3.0)
        assert max_entropy(1) == 0.0

    def test_max_entropy_rejects_non_positive(self):
        with pytest.raises(DistributionError):
            max_entropy(0)

    def test_normalized_entropy_of_uniform_is_one(self):
        assert normalized_entropy([0.25] * 4) == pytest.approx(1.0)

    def test_normalized_entropy_of_single_config_is_zero(self):
        assert normalized_entropy([1.0]) == 0.0

    def test_normalized_entropy_between_zero_and_one(self):
        value = normalized_entropy([0.7, 0.2, 0.1])
        assert 0.0 < value < 1.0


class TestEffectiveConfigurations:
    def test_uniform_effective_count_equals_support(self):
        assert effective_configurations([0.125] * 8) == pytest.approx(8.0)

    def test_skewed_effective_count_below_support(self):
        assert effective_configurations([0.9, 0.05, 0.05]) < 3.0
