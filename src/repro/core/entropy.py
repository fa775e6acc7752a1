"""Entropy measures over replica-configuration distributions.

The paper quantifies replica diversity with the Shannon entropy of the
probability distribution ``p = (p1, ..., pk)`` over the configuration space
``D = {d1, ..., dk}`` (Section IV-A), with the convention ``0 * log(1/0) = 0``.
Example 1 fixes the logarithm base to 2 (an 8-replica uniform distribution has
entropy 3), so every function here defaults to base 2 but accepts any base.

Beyond plain Shannon entropy the module provides the effective number of
configurations (the Hill number of order 1, from the ecology literature the
paper borrows "abundance" from), plus helpers for maximum and normalized
entropy.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.exceptions import DistributionError

#: Tolerance used when validating that probabilities sum to one.
PROBABILITY_TOLERANCE = 1e-9


def _as_validated_probabilities(
    probabilities: Iterable[float],
    *,
    normalize: bool = False,
) -> list[float]:
    """Return ``probabilities`` as a validated list.

    Negative entries always raise :class:`DistributionError`.  When
    ``normalize`` is false the entries must sum to 1 within
    :data:`PROBABILITY_TOLERANCE`; when true they are rescaled to sum to 1.
    """
    values = [float(p) for p in probabilities]
    if not values:
        raise DistributionError("probability vector must not be empty")
    for value in values:
        if value < 0:
            raise DistributionError(f"probabilities must be non-negative, got {value}")
        if math.isnan(value) or math.isinf(value):
            raise DistributionError(f"probabilities must be finite, got {value}")
    total = sum(values)
    if total <= 0:
        raise DistributionError("probability vector must have positive mass")
    if normalize:
        return [value / total for value in values]
    if abs(total - 1.0) > PROBABILITY_TOLERANCE:
        raise DistributionError(
            f"probabilities must sum to 1 (got {total!r}); "
            "pass normalize=True to rescale raw weights"
        )
    return values


def _check_base(base: float) -> None:
    if base <= 0 or base == 1:
        raise DistributionError(f"logarithm base must be positive and != 1, got {base}")


def _log(value: float, base: float) -> float:
    _check_base(base)
    return math.log(value, base)


def shannon_entropy(
    probabilities: Iterable[float],
    *,
    base: float = 2.0,
    normalize: bool = False,
) -> float:
    """Shannon entropy ``H(p) = -sum_i p_i log(p_i)`` (Section IV-A).

    Zero-probability entries contribute nothing, following the paper's
    convention ``log(1/0) := 0``.

    Args:
        probabilities: probability vector (or raw non-negative weights when
            ``normalize`` is true).
        base: logarithm base; 2 gives bits and matches Example 1.
        normalize: rescale raw weights so they sum to one before computing.

    Returns:
        The entropy in units determined by ``base``.
    """
    return unchecked_shannon_entropy(
        _as_validated_probabilities(probabilities, normalize=normalize), base=base
    )


def unchecked_shannon_entropy(
    probabilities: Iterable[float], *, base: float = 2.0
) -> float:
    """The Shannon entropy loop over probabilities that are already valid.

    The one entropy computation of the package: terms are subtracted left
    to right as ``p * log(p, base)``, so every caller gets the same bits.
    ``log(p, base)`` is computed once per distinct share value (censuses
    repeat shares, e.g. Figure 1's residual miners), which changes no bit.
    Callers validate the vector; only the base is checked here, before any
    term, so a degenerate base is rejected even for a vector with no
    positive share.
    """
    _check_base(base)
    logs: dict[float, float] = {}
    entropy = 0.0
    for p in probabilities:
        if p > 0:
            log = logs.get(p)
            if log is None:
                log = logs[p] = math.log(p, base)
            entropy -= p * log
    # Guard against -0.0 from floating point noise on degenerate vectors.
    return 0.0 if entropy == 0.0 else entropy


def max_entropy(support_size: int, *, base: float = 2.0) -> float:
    """Maximum achievable entropy for ``support_size`` configurations.

    This is ``log(support_size)`` and is attained exactly by the uniform
    distribution, i.e. by a κ-optimal fault-independent system with
    κ = ``support_size`` (Definition 1).
    """
    if support_size <= 0:
        raise DistributionError(f"support size must be positive, got {support_size}")
    if support_size == 1:
        return 0.0
    return _log(float(support_size), base)


def normalized_entropy(
    probabilities: Iterable[float],
    *,
    base: float = 2.0,
    normalize: bool = False,
) -> float:
    """Pielou-style evenness: entropy divided by the maximum for its support.

    Returns a value in ``[0, 1]``; 1 means the non-zero configuration shares
    are perfectly uniform (the distribution is κ-optimal for its own κ), and
    values near 0 indicate an oligopoly.  A single-configuration distribution
    is defined to have evenness 0 (no diversity at all).
    """
    values = _as_validated_probabilities(probabilities, normalize=normalize)
    support = sum(1 for p in values if p > 0)
    if support <= 1:
        return 0.0
    return shannon_entropy(values, base=base) / max_entropy(support, base=base)


def effective_configurations(
    probabilities: Iterable[float],
    *,
    normalize: bool = False,
) -> float:
    """Effective number of configurations (Hill number of order 1).

    ``exp(H_nats)`` — the number of equally-likely configurations that would
    produce the observed Shannon entropy.  An 8-replica uniform BFT system has
    exactly 8 effective configurations; the Bitcoin oligopoly of Example 1 has
    fewer than 8 despite having many more miners.
    """
    entropy_nats = shannon_entropy(probabilities, base=math.e, normalize=normalize)
    return math.exp(entropy_nats)
