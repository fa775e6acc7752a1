"""Unit tests for repro.core.distribution."""

from __future__ import annotations

import pytest

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import DistributionError


class TestConstruction:
    def test_weights_are_normalized(self):
        dist = ConfigurationDistribution({"a": 2.0, "b": 6.0})
        assert dist.share("a") == pytest.approx(0.25)
        assert dist.share("b") == pytest.approx(0.75)
        assert sum(dist.probabilities()) == pytest.approx(1.0)

    def test_from_counts(self):
        dist = ConfigurationDistribution.from_counts({"a": 3, "b": 1})
        assert dist.share("a") == pytest.approx(0.75)

    def test_from_counts_rejects_fractional(self):
        with pytest.raises(DistributionError):
            ConfigurationDistribution.from_counts({"a": 1.5})

    def test_uniform(self):
        dist = ConfigurationDistribution.uniform(["a", "b", "c", "d"])
        assert dist.is_uniform()
        assert dist.entropy() == pytest.approx(2.0)

    def test_uniform_rejects_duplicates(self):
        with pytest.raises(DistributionError):
            ConfigurationDistribution.uniform(["a", "a"])

    def test_uniform_labels(self):
        dist = ConfigurationDistribution.uniform_labels(8)
        assert dist.support_size() == 8
        assert dist.entropy() == pytest.approx(3.0)

    def test_from_probabilities_with_keys(self):
        dist = ConfigurationDistribution.from_probabilities([0.5, 0.5], keys=["x", "y"])
        assert dist.share("x") == pytest.approx(0.5)

    def test_from_probabilities_key_mismatch(self):
        with pytest.raises(DistributionError):
            ConfigurationDistribution.from_probabilities([0.5, 0.5], keys=["x"])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            ConfigurationDistribution({})

    def test_rejects_negative_weight(self):
        with pytest.raises(DistributionError):
            ConfigurationDistribution({"a": -1.0})

    def test_rejects_zero_total(self):
        with pytest.raises(DistributionError):
            ConfigurationDistribution({"a": 0.0, "b": 0.0})


class TestQueries:
    def test_unknown_key_has_zero_share(self):
        dist = ConfigurationDistribution({"a": 1.0})
        assert dist.share("missing") == 0.0

    def test_support_excludes_zero_shares(self):
        dist = ConfigurationDistribution({"a": 1.0, "b": 0.0})
        assert dist.support() == ("a",)
        assert dist.support_size() == 1
        assert len(dist) == 2

    def test_largest(self):
        dist = ConfigurationDistribution({"a": 5.0, "b": 3.0, "c": 2.0})
        top = dist.largest(2)
        assert top[0][0] == "a"
        assert top[1][0] == "b"

    def test_entropy_deficit_zero_for_uniform(self):
        assert ConfigurationDistribution.uniform_labels(16).entropy_deficit() == pytest.approx(0.0)

    def test_diversity_profile_keys(self):
        profile = ConfigurationDistribution({"a": 0.6, "b": 0.4}).diversity_profile()
        assert "shannon_entropy" in profile and "hhi" in profile

    def test_equality_ignores_tiny_float_noise(self):
        a = ConfigurationDistribution({"x": 1.0, "y": 2.0})
        b = ConfigurationDistribution({"x": 10.0, "y": 20.0})
        assert a == b

    def test_contains_and_iter(self):
        dist = ConfigurationDistribution({"a": 1.0, "b": 1.0})
        assert "a" in dist
        assert set(dist) == {"a", "b"}


class TestTransformations:
    def test_restrict_renormalizes(self):
        dist = ConfigurationDistribution({"a": 0.5, "b": 0.25, "c": 0.25})
        restricted = dist.restrict(["b", "c"])
        assert restricted.share("b") == pytest.approx(0.5)
        assert "a" not in restricted

    def test_restrict_to_nothing_raises(self):
        dist = ConfigurationDistribution({"a": 1.0})
        with pytest.raises(DistributionError):
            dist.restrict(["missing"])

    def test_without_zero_shares(self):
        dist = ConfigurationDistribution({"a": 1.0, "b": 0.0})
        assert len(dist.without_zero_shares()) == 1

    def test_merge_convex_combination(self):
        a = ConfigurationDistribution({"x": 1.0})
        b = ConfigurationDistribution({"y": 1.0})
        merged = a.merge(b, self_weight=0.25)
        assert merged.share("x") == pytest.approx(0.25)
        assert merged.share("y") == pytest.approx(0.75)

    def test_merge_rejects_bad_weight(self):
        a = ConfigurationDistribution({"x": 1.0})
        with pytest.raises(DistributionError):
            a.merge(a, self_weight=1.5)

    def test_reweighted(self):
        dist = ConfigurationDistribution({"a": 0.5, "b": 0.5})
        reweighted = dist.reweighted({"a": 3.0})
        assert reweighted.share("a") == pytest.approx(0.75)

    def test_reweighted_rejects_negative(self):
        dist = ConfigurationDistribution({"a": 1.0})
        with pytest.raises(DistributionError):
            dist.reweighted({"a": -1.0})

    def test_reweighted_cannot_remove_all_mass(self):
        dist = ConfigurationDistribution({"a": 1.0})
        with pytest.raises(DistributionError):
            dist.reweighted({"a": 0.0})

    def test_split_configuration_preserves_total_mass(self):
        dist = ConfigurationDistribution({"pool": 0.6, "other": 0.4})
        split = dist.split_configuration("pool", 3)
        assert sum(split.probabilities()) == pytest.approx(1.0)
        assert split.support_size() == 4
        assert split.share("pool#0") == pytest.approx(0.2)

    def test_split_configuration_increases_entropy(self):
        dist = ConfigurationDistribution({"pool": 0.6, "other": 0.4})
        assert dist.split_configuration("pool", 4).entropy() > dist.entropy()

    def test_split_unknown_key_raises(self):
        dist = ConfigurationDistribution({"a": 1.0})
        with pytest.raises(DistributionError):
            dist.split_configuration("missing", 2)


class TestMemoization:
    """The distribution is frozen after init, so derived values are cached."""

    def test_probabilities_are_memoized(self):
        dist = ConfigurationDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
        assert dist.probabilities() is dist.probabilities()

    def test_sorted_probabilities_descending(self):
        dist = ConfigurationDistribution({"a": 0.2, "b": 0.5, "c": 0.3})
        assert dist.sorted_probabilities() == (0.5, 0.3, 0.2)
        assert dist.sorted_probabilities() is dist.sorted_probabilities()

    def test_entropy_is_memoized_per_base(self):
        dist = ConfigurationDistribution({"a": 1, "b": 1, "c": 1, "d": 1})
        assert dist.entropy() == pytest.approx(2.0)
        assert dist.entropy() == dist.entropy()
        assert dist.entropy(base=4.0) == pytest.approx(1.0)

    def test_max_entropy_is_memoized(self):
        dist = ConfigurationDistribution({"a": 1, "b": 1})
        assert dist.max_entropy() == pytest.approx(1.0)
        assert dist.max_entropy() == dist.max_entropy()

    def test_largest_uses_cached_ranking(self):
        dist = ConfigurationDistribution({"a": 0.2, "b": 0.5, "c": 0.3})
        assert dist.largest(1) == (("b", 0.5),)
        assert dist.largest(2) == (("b", 0.5), ("c", 0.3))
        assert dist.largest(99) == (("b", 0.5), ("c", 0.3), ("a", 0.2))
        with pytest.raises(DistributionError):
            dist.largest(-1)

    def test_memoization_does_not_leak_across_instances(self):
        first = ConfigurationDistribution({"a": 1, "b": 1})
        second = ConfigurationDistribution({"a": 3, "b": 1})
        assert first.entropy() == pytest.approx(1.0)
        assert second.entropy() < first.entropy()
