"""Property-based tests (hypothesis) for the core diversity mathematics."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.abundance import AbundanceVector
from repro.core.distribution import ConfigurationDistribution
from repro.core.diversity_index import gini_simpson_index, hill_number, simpson_index
from repro.core.entropy import max_entropy, normalized_entropy, shannon_entropy
from repro.core.optimality import is_kappa_optimal, optimality_gap
from repro.core.propositions import rational_takeover_fraction

#: Strictly positive weights that stay numerically comfortable.
positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


def _distribution(weights) -> ConfigurationDistribution:
    return ConfigurationDistribution(
        {f"config-{index}": weight for index, weight in enumerate(weights)}
    )


class TestEntropyProperties:
    @given(positive_weights)
    def test_entropy_bounded_by_log_support(self, weights):
        dist = _distribution(weights)
        entropy = dist.entropy()
        assert -1e-9 <= entropy <= max_entropy(dist.support_size()) + 1e-9

    @given(positive_weights)
    def test_entropy_invariant_under_scaling(self, weights):
        dist = _distribution(weights)
        scaled = _distribution([w * 37.5 for w in weights])
        assert math.isclose(dist.entropy(), scaled.entropy(), abs_tol=1e-9)

    @given(positive_weights)
    def test_normalized_entropy_in_unit_interval(self, weights):
        value = normalized_entropy(weights, normalize=True)
        assert -1e-9 <= value <= 1.0 + 1e-9

    @given(st.integers(min_value=1, max_value=512))
    def test_uniform_distribution_attains_max_entropy(self, support):
        probs = [1.0 / support] * support
        assert math.isclose(shannon_entropy(probs), max_entropy(support), abs_tol=1e-9)

    @given(positive_weights, st.integers(min_value=0, max_value=63))
    def test_merging_two_configurations_never_increases_entropy(self, weights, index):
        # Concentration (merging two fault domains into one) cannot raise diversity.
        if len(weights) < 2:
            return
        dist = _distribution(weights)
        keys = list(dist.shares())
        source = keys[index % len(keys)]
        target = keys[(index + 1) % len(keys)]
        merged_weights = dict(zip(keys, weights))
        merged_weights[target] += merged_weights.pop(source)
        merged = ConfigurationDistribution(merged_weights)
        assert merged.entropy() <= dist.entropy() + 1e-9


class TestDiversityIndexProperties:
    @given(positive_weights)
    def test_simpson_and_gini_simpson_are_complementary(self, weights):
        probs = _distribution(weights).probabilities()
        assert math.isclose(
            simpson_index(probs) + gini_simpson_index(probs), 1.0, abs_tol=1e-9
        )

    @given(positive_weights)
    def test_hill_numbers_are_monotone_in_order(self, weights):
        probs = _distribution(weights).probabilities()
        h0 = hill_number(probs, 0)
        h1 = hill_number(probs, 1)
        h2 = hill_number(probs, 2)
        assert h0 + 1e-9 >= h1 >= h2 - 1e-9

    @given(positive_weights)
    def test_hill_one_is_exp_entropy(self, weights):
        probs = _distribution(weights).probabilities()
        assert math.isclose(
            hill_number(probs, 1), math.exp(shannon_entropy(probs, base=math.e)), rel_tol=1e-9
        )


class TestOptimalityProperties:
    @given(st.integers(min_value=1, max_value=256))
    def test_uniform_is_always_kappa_optimal(self, kappa):
        dist = ConfigurationDistribution.uniform_labels(kappa)
        assert is_kappa_optimal(dist, kappa=kappa)
        assert math.isclose(optimality_gap(dist).deficit, 0.0, abs_tol=1e-9)

    @given(positive_weights)
    def test_optimality_gap_is_non_negative(self, weights):
        gap = optimality_gap(_distribution(weights))
        assert gap.deficit >= -1e-9
        assert gap.evenness <= 1.0 + 1e-9


class TestAbundanceProperties:
    @given(positive_weights, st.floats(min_value=0.1, max_value=100.0))
    def test_scaling_preserves_relative_abundance_and_entropy(self, weights, factor):
        vector = AbundanceVector(
            {f"config-{index}": weight for index, weight in enumerate(weights)}
        )
        scaled = AbundanceVector(
            {f"config-{index}": weight * factor for index, weight in enumerate(weights)}
        )
        assert vector.has_same_relative_abundance(scaled, tolerance=1e-6)
        assert math.isclose(vector.entropy(), scaled.entropy(), abs_tol=1e-9)


class TestProposition3Properties:
    @settings(max_examples=50)
    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=8),
    )
    def test_rational_takeover_is_antitone_in_abundance(self, kappa, omega, coalition):
        dist = ConfigurationDistribution.uniform_labels(kappa)
        smaller = rational_takeover_fraction(dist, omega, coalition)
        larger = rational_takeover_fraction(dist, omega * 2, coalition)
        assert larger <= smaller + 1e-9
