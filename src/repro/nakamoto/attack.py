"""Analytic attack-success models for Nakamoto consensus.

Two analyses tie the Nakamoto substrate back to the paper's safety condition:

- :func:`double_spend_success_probability` -- the classic race analysis
  (Nakamoto's appendix / Rosenfeld): the probability that an attacker with
  hash-power fraction ``q`` eventually reverts a transaction buried under
  ``z`` confirmations.
- :func:`majority_takeover` -- the shared-vulnerability route to a majority:
  given the mining-pool landscape and an exploit campaign outcome, how much
  hash power does the attacker control and does it cross the 50% bound
  (the Nakamoto analogue of exceeding ``f``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from repro.core.exceptions import AnalysisError


def double_spend_success_probability(attacker_fraction: float, confirmations: int) -> float:
    """Probability that a ``q``-fraction attacker reverts ``z`` confirmations.

    Uses the standard negative-binomial race formulation (Rosenfeld 2014,
    equivalent to Nakamoto's appendix in the limit): with ``p = 1 - q`` the
    honest fraction, the attacker wins outright when ``q >= p``; otherwise

    ``P = 1 - sum_{k=0}^{z} [C(z+k-1, k) (p^z q^k - p^k q^z)]``.

    Args:
        attacker_fraction: the attacker's share ``q`` of total hash power.
        confirmations: the merchant's confirmation depth ``z``.
    """
    if not 0.0 <= attacker_fraction <= 1.0:
        raise AnalysisError(
            f"attacker fraction must be in [0, 1], got {attacker_fraction}"
        )
    if confirmations < 0:
        raise AnalysisError(f"confirmations must be non-negative, got {confirmations}")
    q = attacker_fraction
    p = 1.0 - q
    if q >= p:
        return 1.0
    if q == 0.0:
        return 0.0
    if confirmations == 0:
        return 1.0
    total = 0.0
    for k in range(confirmations + 1):
        binom = math.comb(confirmations + k - 1, k)
        total += binom * (p**confirmations * q**k - q**confirmations * p**k)
    probability = 1.0 - total
    return min(1.0, max(0.0, probability))


@dataclass(frozen=True)
class MajorityTakeoverReport:
    """Result of a shared-vulnerability majority-takeover analysis.

    Attributes:
        compromised_fraction: hash-power fraction the attacker controls.
        majority: whether the attacker holds at least half the hash power.
        double_spend_probability: success probability against the standard
            6-confirmation rule given the compromised fraction.
        compromised_pools: the pools (or miners) whose power was captured.
    """

    compromised_fraction: float
    majority: bool
    double_spend_probability: float
    compromised_pools: Tuple[str, ...]


def majority_takeover(
    power_by_participant: Mapping[str, float],
    compromised_ids: Sequence[str],
    *,
    confirmations: int = 6,
) -> MajorityTakeoverReport:
    """Evaluate how close a compromise puts the attacker to a hash majority.

    Args:
        power_by_participant: hash power per pool / miner.
        compromised_ids: participants whose power the attacker now controls
            (e.g. the outcome of an exploit campaign against pool software).
        confirmations: confirmation depth for the double-spend probability.
    """
    if not power_by_participant:
        raise AnalysisError("power mapping must not be empty")
    total = sum(power_by_participant.values())
    if total <= 0:
        raise AnalysisError("total hash power must be positive")
    unknown = [pid for pid in compromised_ids if pid not in power_by_participant]
    if unknown:
        raise AnalysisError(f"unknown participants: {unknown!r}")
    # Sorted, not raw set order: float summation order must not depend on
    # the per-process string-hash seed, or repeat runs drift by an ulp.
    compromised_power = sum(
        power_by_participant[pid] for pid in sorted(set(compromised_ids))
    )
    fraction = compromised_power / total
    return MajorityTakeoverReport(
        compromised_fraction=fraction,
        majority=fraction >= 0.5,
        double_spend_probability=double_spend_success_probability(fraction, confirmations),
        compromised_pools=tuple(sorted(set(compromised_ids))),
    )
