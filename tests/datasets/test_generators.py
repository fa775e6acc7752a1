"""Unit tests for repro.datasets.generators and the synthetic ecosystems."""

from __future__ import annotations


import pytest

from repro.core.configuration import ComponentKind
from repro.core.exceptions import ConfigurationError, DistributionError
from repro.datasets.generators import (
    oligopoly_distribution,
    uniform_distribution,
    zipf_distribution,
)
from repro.datasets.software_ecosystem import (
    ComponentMarket,
    default_ecosystem,
    diverse_ecosystem,
    skewed_ecosystem,
)


class TestGenerators:
    def test_uniform_distribution_is_kappa_optimal(self):
        dist = uniform_distribution(16)
        assert dist.is_uniform()
        assert dist.entropy() == pytest.approx(4.0)

    def test_zipf_exponent_zero_is_uniform(self):
        assert zipf_distribution(8, 0.0).is_uniform()

    def test_zipf_larger_exponent_concentrates_more(self):
        mild = zipf_distribution(32, 0.5)
        harsh = zipf_distribution(32, 2.0)
        assert harsh.entropy() < mild.entropy()

    def test_zipf_rejects_negative_exponent(self):
        with pytest.raises(DistributionError):
            zipf_distribution(8, -1.0)

    def test_oligopoly_distribution_shape(self):
        dist = oligopoly_distribution(10, 0.96, 500)
        heads = [dist.shares()[f"config-head-{i}"] for i in range(10)]
        assert sum(heads) == pytest.approx(0.96)
        assert dist.support_size() == 510

    def test_oligopoly_without_tail_requires_full_share(self):
        with pytest.raises(DistributionError):
            oligopoly_distribution(3, 0.9, 0)
        assert oligopoly_distribution(3, 1.0, 0).support_size() == 3

    def test_zero_count_rejected_everywhere(self):
        with pytest.raises(DistributionError):
            uniform_distribution(0)


class TestSyntheticEcosystems:
    def test_default_ecosystem_sampling_is_deterministic(self):
        ecosystem = default_ecosystem()
        a = ecosystem.sample_population(50, seed=5)
        b = ecosystem.sample_population(50, seed=5)
        assert a.configuration_census() == b.configuration_census()

    def test_skewed_ecosystem_has_lower_entropy(self):
        diverse_pop = diverse_ecosystem().sample_population(300, seed=1)
        skewed_pop = skewed_ecosystem().sample_population(300, seed=1)
        assert skewed_pop.entropy() < diverse_pop.entropy()

    def test_sampled_configurations_use_known_components(self):
        ecosystem = default_ecosystem()
        population = ecosystem.sample_population(20, seed=2)
        os_names = {
            replica.configuration.component(ComponentKind.OPERATING_SYSTEM).name
            for replica in population
        }
        (market,) = [
            market for market in ecosystem.markets
            if market.kind is ComponentKind.OPERATING_SYSTEM
        ]
        market_names = {name for name, _ in market.shares}
        assert os_names <= market_names

    def test_attested_fraction_is_respected(self):
        population = default_ecosystem().sample_population(100, seed=3, attested_fraction=0.3)
        attested = sum(1 for replica in population if replica.attested)
        assert attested == 30

    def test_explicit_power_assignment(self):
        population = default_ecosystem().sample_population(
            3, seed=4, power=[5.0, 3.0, 2.0]
        )
        assert population.total_power() == pytest.approx(10.0)

    def test_power_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            default_ecosystem().sample_population(3, power=[1.0])

    @pytest.mark.parametrize(
        "shares, message",
        [
            ((), "no components"),
            ((("linux", float("nan")), ("bsd", 1.0)), "finite"),
            ((("linux", float("inf")), ("bsd", 1.0)), "finite"),
            ((("linux", 1.0), ("bsd", float("-inf"))), "finite"),
            ((("linux", 1.0), ("bsd", -0.5)), "non-negative"),
            ((("linux", 0.0), ("bsd", 0.0)), "positive total"),
        ],
    )
    def test_market_rejects_bad_shares(self, shares, message):
        with pytest.raises(ConfigurationError, match=message):
            ComponentMarket(ComponentKind.OPERATING_SYSTEM, shares)
