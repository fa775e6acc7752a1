"""Unit tests for repro.core.abundance."""

from __future__ import annotations

import pytest

from repro.core.abundance import AbundanceVector
from repro.core.exceptions import DistributionError


class TestConstruction:
    def test_uniform_abundance(self):
        vector = AbundanceVector.uniform(["a", "b", "c"], abundance=4)
        assert vector.total() == pytest.approx(12.0)
        assert vector.mean_abundance() == pytest.approx(4.0)

    def test_from_counts(self):
        vector = AbundanceVector.from_counts({"a": 2, "b": 3})
        assert vector.abundance_of("a") == 2

    def test_from_counts_rejects_fractional(self):
        with pytest.raises(DistributionError):
            AbundanceVector.from_counts({"a": 2.5})

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            AbundanceVector({"a": -1.0})

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            AbundanceVector({})

    def test_rejects_zero_total(self):
        with pytest.raises(DistributionError):
            AbundanceVector({"a": 0.0})


class TestQueries:
    def test_relative_abundance_sums_to_one(self):
        vector = AbundanceVector({"a": 1.0, "b": 3.0})
        relative = vector.relative()
        assert sum(relative.values()) == pytest.approx(1.0)
        assert relative["b"] == pytest.approx(0.75)

    def test_support_excludes_zero_entries(self):
        vector = AbundanceVector({"a": 2.0, "b": 0.0})
        assert vector.support() == ("a",)

    def test_entropy_matches_distribution(self):
        vector = AbundanceVector.uniform(["a", "b", "c", "d"])
        assert vector.entropy() == pytest.approx(2.0)
        assert vector.to_distribution().entropy() == pytest.approx(2.0)

    def test_same_relative_abundance_detection(self):
        base = AbundanceVector({"a": 1.0, "b": 2.0})
        scaled = AbundanceVector({"a": 10.0, "b": 20.0})
        different = AbundanceVector({"a": 1.0, "b": 1.0})
        assert base.has_same_relative_abundance(scaled)
        assert not base.has_same_relative_abundance(different)


class TestTransformations:

    def test_incremented_adds_new_key(self):
        base = AbundanceVector({"a": 1.0})
        updated = base.incremented({"b": 2.0})
        assert updated.abundance_of("b") == pytest.approx(2.0)
        assert base.abundance_of("b") == 0.0  # original untouched

    def test_incremented_can_remove_individuals(self):
        base = AbundanceVector({"a": 3.0, "b": 3.0})
        updated = base.incremented({"a": -2.0})
        assert updated.abundance_of("a") == pytest.approx(1.0)

    def test_incremented_rejects_negative_result(self):
        with pytest.raises(DistributionError):
            AbundanceVector({"a": 1.0, "b": 1.0}).incremented({"a": -2.0})

    def test_uneven_increment_lowers_entropy_of_uniform(self):
        # The Proposition 1 mechanism at the abundance-vector level.
        base = AbundanceVector.uniform(["a", "b", "c", "d"], abundance=2)
        skewed = base.incremented({"a": 6.0})
        assert skewed.entropy() < base.entropy()

    def test_equality(self):
        assert AbundanceVector({"a": 1.0}) == AbundanceVector({"a": 1.0})
        assert AbundanceVector({"a": 1.0}) != AbundanceVector({"a": 2.0})
