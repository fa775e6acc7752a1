"""Definitions 1 and 2: κ-optimal fault independence and (κ, ω)-optimal resilience.

Definition 1 (κ-optimal fault independence): a configuration distribution
``p`` achieves κ-optimal fault independence iff exactly κ of its shares are
non-zero and all non-zero shares are equal (i.e. the distribution is uniform
over a support of size κ, which maximizes entropy for that support size).

Definition 2 ((κ, ω)-optimal resilience): a system is (κ, ω)-optimally
resilient if it is κ-optimally fault independent *and* has configuration
abundance ω (every populated configuration is run by exactly ω individuals).

The module provides predicates, constructors and gap measurements used by the
propositions, the diversity planner and the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Union

from repro.core.abundance import AbundanceVector
from repro.core.distribution import ConfigurationDistribution
from repro.core.entropy import max_entropy
from repro.core.exceptions import OptimalityError

ConfigKey = Hashable
DistributionLike = Union[ConfigurationDistribution, Sequence[float]]

#: Default relative tolerance when comparing probability shares.
DEFAULT_TOLERANCE = 1e-9


def _as_distribution(value: DistributionLike) -> ConfigurationDistribution:
    if isinstance(value, ConfigurationDistribution):
        return value
    return ConfigurationDistribution.from_probabilities(list(value))


def is_kappa_optimal(
    distribution: DistributionLike,
    kappa: Optional[int] = None,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """Check Definition 1.

    Args:
        distribution: the configuration distribution (or raw probability
            vector) to test.
        kappa: the required support size; when omitted, the distribution's own
            support size is used (i.e. the check reduces to "are the non-zero
            shares uniform?").
        tolerance: absolute tolerance for share equality.

    Returns:
        True iff the distribution has exactly ``kappa`` non-zero shares and
        they are all equal within ``tolerance``.
    """
    dist = _as_distribution(distribution)
    support = dist.support_size()
    if kappa is not None:
        if kappa <= 0:
            raise OptimalityError(f"kappa must be positive, got {kappa}")
        if support != kappa:
            return False
    positive = [share for share in dist.probabilities() if share > 0]
    expected = 1.0 / len(positive)
    return all(abs(share - expected) <= tolerance for share in positive)


def is_kappa_omega_optimal(
    abundance: AbundanceVector,
    kappa: Optional[int] = None,
    omega: Optional[float] = None,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """Check Definition 2: κ-optimal fault independence with abundance ω.

    Args:
        abundance: configuration abundance vector of the system.
        kappa: required number of populated configurations (defaults to the
            vector's own support size).
        omega: required per-configuration abundance (defaults to the observed
            mean abundance — i.e. only uniformity is required).
        tolerance: relative tolerance for abundance comparisons.
    """
    distribution = abundance.to_distribution()
    if not is_kappa_optimal(distribution, kappa, tolerance=tolerance):
        return False
    positive = [abundance.abundance_of(key) for key in abundance.support()]
    target = omega if omega is not None else (sum(positive) / len(positive))
    if target <= 0:
        raise OptimalityError(f"omega must be positive, got {target}")
    return all(abs(value - target) <= tolerance * max(1.0, target) for value in positive)


@dataclass(frozen=True)
class OptimalityGap:
    """How far a distribution is from κ-optimal fault independence.

    Attributes:
        kappa: the distribution's support size.
        entropy: its Shannon entropy (bits).
        optimal_entropy: the entropy of the κ-optimal distribution on the
            same support (``log2 κ``).
        deficit: ``optimal_entropy - entropy`` (zero iff κ-optimal).
        evenness: ``entropy / optimal_entropy`` in [0, 1] (1 iff κ-optimal,
            defined as 0 for a single-configuration support).
    """

    kappa: int
    entropy: float
    optimal_entropy: float
    deficit: float
    evenness: float


def optimality_gap(distribution: DistributionLike, *, base: float = 2.0) -> OptimalityGap:
    """Measure the gap between a distribution and κ-optimality (Definition 1)."""
    dist = _as_distribution(distribution)
    kappa = dist.support_size()
    entropy = dist.entropy(base=base)
    optimal = max_entropy(kappa, base=base)
    deficit = optimal - entropy
    evenness = (entropy / optimal) if optimal > 0 else 0.0
    return OptimalityGap(
        kappa=kappa,
        entropy=entropy,
        optimal_entropy=optimal,
        deficit=max(0.0, deficit),
        evenness=evenness,
    )


def minimum_kappa_for_entropy(target_entropy: float, *, base: float = 2.0) -> int:
    """Smallest κ whose κ-optimal distribution reaches ``target_entropy``.

    Useful for sizing questions like "how many equally-weighted configurations
    would Bitcoin need to match an n-replica BFT deployment?": the answer is
    ``ceil(base ** target_entropy)``.
    """
    if target_entropy < 0:
        raise OptimalityError(f"target entropy must be non-negative, got {target_entropy}")
    if target_entropy == 0:
        return 1
    kappa = math.ceil(base**target_entropy - 1e-12)
    return max(1, kappa)
