"""The diversity mathematics checked on the paper's own distributions.

Each case is a census the paper or its experiments reason about: the
classic-BFT uniform deployments of Example 1, the Feb-2023 Bitcoin pool
snapshot and its Figure 1 extensions, the synthetic Zipf and oligopoly shapes
of the safety-violation sweep, and the edge cases of Definition 1 (a zero
share, a monoculture).  Every test states one identity that must hold between
the live modules (entropy, diversity indices, optimality, abundance,
Propositions 1-3, the Section II-C safety condition and the Monte-Carlo
estimator) on every case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.analysis.monte_carlo import (
    analytic_single_vulnerability_violation,
    estimate_violation_probability,
)
from repro.core.abundance import AbundanceVector
from repro.core.distribution import ConfigurationDistribution
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
from repro.core.entropy import (
    effective_configurations,
    max_entropy,
    normalized_entropy,
    shannon_entropy,
)
from repro.core.optimality import (
    is_kappa_optimal,
    minimum_kappa_for_entropy,
    optimality_gap,
)
from repro.core.propositions import (
    check_proposition_3,
    proposition_3_holds,
    rational_takeover_fraction,
)
from repro.core.resilience import ProtocolFamily, SafetyCondition, tolerated_fault_fraction
from repro.datasets.bitcoin_pools import bitcoin_pool_distribution, figure1_distribution
from repro.datasets.generators import (
    oligopoly_distribution,
    uniform_distribution,
    zipf_distribution,
)

#: Slack for identities that reorder floating-point sums.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Case:
    """A named census with the facts the paper states about it.

    Attributes:
        build: constructs the distribution.
        kappa: its number of non-zero shares (κ of Definition 1).
        kappa_optimal: whether its non-zero shares are all equal.
        largest_share: its largest share (the power one shared fault takes).
    """

    build: Callable[[], ConfigurationDistribution]
    kappa: int
    kappa_optimal: bool
    largest_share: float


#: The Example 1 pool percentages sum to 99.145 (see bitcoin_pools); Figure 1
#: adds the 0.87% residual on top of them.
_POOLS_LARGEST = 34.239 / 99.145
_FIGURE1_LARGEST = 34.239 / (99.145 + 0.87)

CASES = {
    "bft-4-replicas": Case(lambda: uniform_distribution(4), 4, True, 0.25),
    "example1-bft-8-replicas": Case(lambda: uniform_distribution(8), 8, True, 0.125),
    "example1-bitcoin-pools": Case(bitcoin_pool_distribution, 17, False, _POOLS_LARGEST),
    "figure1-118-miners": Case(
        lambda: figure1_distribution(101), 118, False, _FIGURE1_LARGEST
    ),
    "figure1-1017-miners": Case(
        lambda: figure1_distribution(1000), 1017, False, _FIGURE1_LARGEST
    ),
    "zipf-64": Case(
        lambda: zipf_distribution(64, 1.0),
        64,
        False,
        1.0 / sum(1.0 / rank for rank in range(1, 65)),
    ),
    "oligopoly-10-heads-96pct": Case(
        lambda: oligopoly_distribution(10, 0.96, 500), 510, False, 0.096
    ),
    "two-configurations-9-to-1": Case(
        lambda: ConfigurationDistribution({"majority": 9.0, "minority": 1.0}), 2, False, 0.9
    ),
    "zero-share-configuration": Case(
        lambda: ConfigurationDistribution({"a": 1.0, "b": 1.0, "unused": 0.0}), 2, True, 0.5
    ),
    "monoculture": Case(lambda: ConfigurationDistribution({"solo": 1.0}), 1, True, 1.0),
}


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request) -> Case:
    return CASES[request.param]


@pytest.fixture
def dist(case) -> ConfigurationDistribution:
    return case.build()


def test_support_size_and_optimality_match_the_paper(case, dist):
    assert dist.support_size() == case.kappa
    assert is_kappa_optimal(dist) is case.kappa_optimal
    assert is_kappa_optimal(dist, case.kappa) is case.kappa_optimal
    assert not is_kappa_optimal(dist, case.kappa + 1)
    assert dist.is_uniform() is case.kappa_optimal


def test_entropy_lies_between_zero_and_log_kappa(case, dist):
    entropy = dist.entropy()
    assert 0.0 <= entropy <= math.log2(case.kappa) + TOLERANCE
    if case.kappa_optimal:
        assert entropy == pytest.approx(max_entropy(case.kappa), abs=TOLERANCE)
    else:
        assert entropy < max_entropy(case.kappa) - TOLERANCE


def test_entropy_does_not_depend_on_configuration_order(dist):
    reversed_dist = ConfigurationDistribution(dict(reversed(list(dist.shares().items()))))
    assert reversed_dist.entropy() == pytest.approx(dist.entropy(), abs=TOLERANCE)
    assert reversed_dist == dist


def test_entropy_changes_base_by_a_constant_factor(dist):
    bits = dist.entropy()
    assert dist.entropy(base=math.e) == pytest.approx(bits * math.log(2), abs=TOLERANCE)
    assert dist.entropy(base=4.0) == pytest.approx(bits / 2, abs=TOLERANCE)


def test_distribution_entropy_is_the_one_entropy_function(dist):
    # The memoized census entropy runs the same loop as the validated
    # function, so the bits are identical, not merely close.
    assert dist.entropy() == shannon_entropy(dist.probabilities())
    assert dist.entropy() == shannon_entropy(list(dist.shares().values()))


def test_effective_configurations_is_two_to_the_entropy(case, dist):
    effective = dist.effective_configurations()
    assert effective == pytest.approx(2.0 ** dist.entropy(), rel=TOLERANCE)
    assert effective == pytest.approx(effective_configurations(dist.probabilities()))
    assert 1.0 - TOLERANCE <= effective <= case.kappa + TOLERANCE


def test_hill_numbers_fall_as_the_order_rises(dist):
    orders = (0.0, 0.5, 1.0, 2.0, 4.0, math.inf)
    values = [hill_number(dist.probabilities(), order) for order in orders]
    for lower, higher in zip(values, values[1:]):
        assert higher <= lower * (1 + TOLERANCE)


def test_hill_numbers_recover_the_classical_indices(case, dist):
    probabilities = dist.probabilities()
    assert hill_number(probabilities, 0) == richness(probabilities) == case.kappa
    assert hill_number(probabilities, 1) == pytest.approx(dist.effective_configurations())
    assert hill_number(probabilities, 2) == pytest.approx(inverse_simpson_index(probabilities))
    assert hill_number(probabilities, math.inf) == pytest.approx(1.0 / case.largest_share)


def test_concentration_indices_agree(case, dist):
    probabilities = dist.probabilities()
    simpson = simpson_index(probabilities)
    assert herfindahl_hirschman_index(probabilities) == pytest.approx(1e4 * simpson)
    assert gini_simpson_index(probabilities) == pytest.approx(1.0 - simpson)
    assert berger_parker_dominance(probabilities) == pytest.approx(case.largest_share)
    # One shared pair of draws is at least as likely as drawing the top share twice.
    assert case.largest_share**2 <= simpson + TOLERANCE <= case.largest_share + 2 * TOLERANCE


def test_diversity_profile_bundles_the_individual_indices(dist):
    probabilities = dist.probabilities()
    profile = dist.diversity_profile()
    assert profile == diversity_profile(probabilities)
    assert profile["shannon_entropy"] == dist.entropy()
    assert profile["normalized_entropy"] == normalized_entropy(probabilities)
    assert profile["simpson"] == simpson_index(probabilities)
    assert profile["berger_parker"] == berger_parker_dominance(probabilities)
    assert profile["richness"] == dist.support_size()
    assert profile["hill_2"] == pytest.approx(profile["inverse_simpson"])


def test_optimality_gap_measures_the_entropy_deficit(case, dist):
    gap = optimality_gap(dist)
    assert gap.kappa == case.kappa
    assert gap.entropy == dist.entropy()
    assert gap.optimal_entropy == max_entropy(case.kappa)
    assert gap.deficit == pytest.approx(max(0.0, gap.optimal_entropy - gap.entropy))
    assert gap.evenness == pytest.approx(normalized_entropy(dist.probabilities()))
    assert (gap.deficit <= TOLERANCE) is case.kappa_optimal or case.kappa == 1


def test_minimum_kappa_for_the_entropy_is_tight(case, dist):
    entropy = dist.entropy()
    kappa = minimum_kappa_for_entropy(entropy)
    assert 1 <= kappa <= case.kappa
    assert max_entropy(kappa) >= entropy - TOLERANCE
    if kappa > 1:
        assert max_entropy(kappa - 1) < entropy + TOLERANCE
    if case.kappa_optimal:
        assert kappa == case.kappa


def test_zero_share_configurations_change_no_index(dist):
    weights = dist.shares()
    plain = ConfigurationDistribution(weights)
    padded = ConfigurationDistribution({**weights, "never-deployed": 0.0})
    assert len(padded) == len(plain) + 1
    assert padded.support() == plain.support()
    assert padded.entropy() == plain.entropy()
    assert padded.diversity_profile() == plain.diversity_profile()


def test_abundance_vector_of_the_same_weights_has_the_same_census(dist):
    abundance = AbundanceVector(dist.shares())
    assert abundance.to_distribution() == dist
    assert abundance.entropy() == pytest.approx(dist.entropy(), abs=TOLERANCE)
    assert abundance.support() == dist.support()
    scaled = AbundanceVector({key: 7.0 * share for key, share in dist.shares().items()})
    assert abundance.has_same_relative_abundance(scaled)
    assert scaled.total() == pytest.approx(7.0)


def test_one_rational_operator_without_abundance_holds_the_largest_share(case, dist):
    assert rational_takeover_fraction(dist, 1, 1) == pytest.approx(case.largest_share)
    assert rational_takeover_fraction(dist, 1, case.kappa) == pytest.approx(1.0)
    assert rational_takeover_fraction(dist, 1, 0) == 0.0


def test_proposition3_sweep_trades_takeover_for_messages(case, dist):
    abundances = (1, 2, 4, 8)
    results = check_proposition_3(dist, abundances, colluding_operators=1)
    assert proposition_3_holds(results)
    for omega, result in zip(abundances, results):
        assert result.replica_count == case.kappa * omega
        assert result.message_complexity == (case.kappa * omega) ** 2
        assert result.max_exploit_takeover == pytest.approx(case.largest_share)
        assert result.max_rational_takeover == pytest.approx(case.largest_share / omega)


@pytest.mark.parametrize("family", [ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO])
def test_one_shared_fault_is_safe_exactly_below_the_tolerance(case, dist, family):
    tolerance = tolerated_fault_fraction(family)
    condition = SafetyCondition.for_family(family, 1.0)
    safe = condition.is_safe([case.largest_share])
    assert safe is (case.largest_share < tolerance)
    certain = analytic_single_vulnerability_violation(
        dist, vulnerability_probability=1.0, tolerated_fraction=tolerance
    )
    assert certain == (0.0 if safe else 1.0)
    assert (
        analytic_single_vulnerability_violation(
            dist, vulnerability_probability=0.0, tolerated_fraction=tolerance
        )
        == 0.0
    )


def test_monte_carlo_with_certain_vulnerabilities_matches_the_closed_form(case, dist):
    tolerance = tolerated_fault_fraction(ProtocolFamily.BFT)
    estimate = estimate_violation_probability(
        dist, vulnerability_probability=1.0, exploit_budget=1, trials=8, seed=3
    )
    assert estimate.trials == 8
    assert estimate.tolerated_fraction == tolerance
    assert estimate.violation_probability == analytic_single_vulnerability_violation(
        dist, vulnerability_probability=1.0, tolerated_fraction=tolerance
    )
    assert estimate.mean_compromised_fraction == pytest.approx(case.largest_share)


def test_largest_ranks_shares_in_descending_order(case, dist):
    ranked = dist.largest(len(dist))
    shares = [share for _, share in ranked]
    assert shares == sorted(shares, reverse=True)
    assert tuple(shares) == dist.sorted_probabilities()
    assert ranked[0][1] == pytest.approx(case.largest_share)
    assert dist.largest(0) == ()
