"""Ecology-style diversity indices complementing Shannon entropy.

Section IV-B borrows the *abundance* vocabulary from ecology; this module
provides the corresponding classical diversity indices so the entropy results
of Figure 1 can be cross-checked against measures with different sensitivity
to rare versus dominant configurations:

- Simpson / Gini-Simpson / inverse Simpson indices (dominance-sensitive);
- Berger-Parker dominance (the single largest share);
- Hill numbers of any order ``q`` (the "effective number of configurations");
- Pielou evenness (normalized Shannon entropy);
- the Herfindahl-Hirschman Index (HHI) familiar from market-concentration
  analysis of mining-pool oligopolies.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.entropy import (
    _as_validated_probabilities,
    normalized_entropy,
    shannon_entropy,
)
from repro.core.exceptions import DistributionError


def simpson_index(probabilities: Iterable[float], *, normalize: bool = False) -> float:
    """Simpson's index ``sum_i p_i^2``.

    The probability that two voting-power units drawn at random belong to the
    same configuration — i.e. the probability that a random pair shares every
    fault domain.  Lower is more diverse.
    """
    values = _as_validated_probabilities(probabilities, normalize=normalize)
    return sum(p * p for p in values)


def gini_simpson_index(probabilities: Iterable[float], *, normalize: bool = False) -> float:
    """Gini-Simpson index ``1 - sum_i p_i^2`` (higher is more diverse)."""
    return 1.0 - simpson_index(probabilities, normalize=normalize)


def inverse_simpson_index(probabilities: Iterable[float], *, normalize: bool = False) -> float:
    """Inverse Simpson index ``1 / sum_i p_i^2`` (Hill number of order 2)."""
    index = simpson_index(probabilities, normalize=normalize)
    if index <= 0:
        raise DistributionError("Simpson index is zero; distribution has no mass")
    return 1.0 / index


def berger_parker_dominance(probabilities: Iterable[float], *, normalize: bool = False) -> float:
    """Berger-Parker dominance: the largest configuration share ``max_i p_i``.

    This is exactly the voting power an attacker obtains by exploiting a
    vulnerability that is unique to the most popular configuration.
    """
    values = _as_validated_probabilities(probabilities, normalize=normalize)
    return max(values)


def herfindahl_hirschman_index(
    probabilities: Iterable[float], *, normalize: bool = False
) -> float:
    """Herfindahl-Hirschman Index on the 0-10000 scale used by regulators.

    Values above 2500 conventionally indicate a highly concentrated market;
    the Example 1 Bitcoin pool snapshot scores well above 1500 ("moderately
    concentrated"), making the oligopoly argument quantitative.
    """
    values = _as_validated_probabilities(probabilities, normalize=normalize)
    return sum((100.0 * p) ** 2 for p in values)


def hill_number(
    probabilities: Iterable[float],
    order: float,
    *,
    normalize: bool = False,
) -> float:
    """Hill number (effective number of configurations) of order ``q``.

    - ``q = 0``: configuration richness (number of non-zero shares);
    - ``q = 1``: ``exp`` of Shannon entropy (in nats);
    - ``q = 2``: inverse Simpson index;
    - ``q = inf``: ``1 / max_i p_i`` (inverse Berger-Parker dominance).
    """
    if order < 0:
        raise DistributionError(f"Hill order must be non-negative, got {order}")
    values = _as_validated_probabilities(probabilities, normalize=normalize)
    positive = [p for p in values if p > 0]
    if math.isclose(order, 1.0):
        return math.exp(shannon_entropy(positive, base=math.e))
    if math.isinf(order):
        return 1.0 / max(positive)
    if order == 0:
        return float(len(positive))
    power_sum = sum(p**order for p in positive)
    return power_sum ** (1.0 / (1.0 - order))


def richness(probabilities: Iterable[float], *, normalize: bool = False) -> int:
    """Configuration richness: the number of configurations with non-zero share.

    This is the κ of Definition 1 when the non-zero shares are also equal.
    """
    values = _as_validated_probabilities(probabilities, normalize=normalize)
    return sum(1 for p in values if p > 0)


def diversity_profile(
    probabilities: Iterable[float],
    *,
    normalize: bool = False,
    base: float = 2.0,
) -> dict:
    """A bundle of all indices for reporting.

    Returns a plain dictionary so experiment drivers can print or serialize it
    without pulling in any serialization dependency.
    """
    values = _as_validated_probabilities(probabilities, normalize=normalize)
    return {
        "shannon_entropy": shannon_entropy(values, base=base),
        "normalized_entropy": normalized_entropy(values),
        "simpson": simpson_index(values),
        "gini_simpson": gini_simpson_index(values),
        "inverse_simpson": inverse_simpson_index(values),
        "berger_parker": berger_parker_dominance(values),
        "hhi": herfindahl_hirschman_index(values),
        "richness": richness(values),
        "hill_1": hill_number(values, 1.0),
        "hill_2": hill_number(values, 2.0),
    }
