"""Parametric configuration-distribution generators for sweeps and ablations.

Figure 1 uses a fixed empirical distribution plus a uniform residual; the
ablations in DESIGN.md §6 also exercise Zipf, Dirichlet and synthetic
oligopoly shapes so the entropy/resilience analysis can be swept over
systematically varied concentration levels.  All generators are deterministic
given an explicit :class:`random.Random` seed, which keeps every experiment
reproducible.

The module also hosts the **streaming population generators**:
:func:`stream_replica_chunks` yields a synthetic ecosystem's population in
bounded chunks, each replica a pure function of ``(seed, index)`` on the
counter-based splitmix64 stream, so chunked generation equals one-shot
generation for every chunk size — the bounded-memory feed for
``PopulationMatrix.from_replica_chunks`` at million-replica scale.  It runs
the replica loop ``SyntheticEcosystem.sample_population`` runs, so each
chunk's market choices are one call of the backend's ``market_choices``
kernel.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import ConfigurationError, DistributionError
from repro.core.population import Replica
from repro.datasets.software_ecosystem import (
    DEFAULT_REPLICA_CHUNK_SIZE,
    SyntheticEcosystem,
)


def stream_replica_chunks(
    ecosystem: SyntheticEcosystem,
    count: int,
    *,
    seed: int = 0,
    chunk_size: int = DEFAULT_REPLICA_CHUNK_SIZE,
    power: float = 1.0,
    attested_fraction: float = 0.0,
    prefix: str = "replica",
) -> Iterator[Tuple[Replica, ...]]:
    """Yield ``ecosystem``'s sampled population in bounded replica chunks.

    Replica ``index`` is exactly the replica
    ``ecosystem.sample_population(count, seed=seed, ...)`` would produce at
    that index — same id, configuration (via
    :meth:`SyntheticEcosystem.configuration_at`), power and attested flag —
    but only ``chunk_size`` replicas exist at a time.  Because each replica
    is a pure function of ``(seed, index)``, chunked generation equals
    one-shot generation for identical seeds, for every chunk size, across
    processes and backends.

    Args:
        ecosystem: the market-share model to sample from.
        count: total number of replicas to generate.
        seed: counter-based RNG seed.
        chunk_size: replicas per yielded chunk (positive).
        power: voting power assigned to every replica (per-replica power
            vectors do not stream; use :meth:`~SyntheticEcosystem.sample_population`
            when each replica needs its own power).
        attested_fraction: fraction marked attested — the first
            ``round(count * fraction)`` replicas, as in ``sample_population``.
        prefix: replica id prefix.
    """
    if count <= 0:
        raise ConfigurationError(f"population count must be positive, got {count}")
    if chunk_size <= 0:
        raise ConfigurationError(f"chunk size must be positive, got {chunk_size}")
    if not 0.0 <= attested_fraction <= 1.0:
        raise ConfigurationError(
            f"attested fraction must be in [0, 1], got {attested_fraction}"
        )
    if power < 0:
        raise ConfigurationError(f"replica power must be non-negative, got {power}")
    replica_power = float(power)
    yield from ecosystem._replica_chunks(
        count,
        seed=seed,
        chunk_size=chunk_size,
        power_of=lambda index: replica_power,
        attested_count=round(count * attested_fraction),
        prefix=prefix,
    )


def _labels(count: int, prefix: str) -> List[str]:
    if count <= 0:
        raise DistributionError(f"configuration count must be positive, got {count}")
    return [f"{prefix}-{index}" for index in range(count)]


def uniform_distribution(count: int, *, prefix: str = "config") -> ConfigurationDistribution:
    """The uniform (κ-optimal) distribution over ``count`` configurations."""
    return ConfigurationDistribution.uniform(_labels(count, prefix))


def zipf_distribution(
    count: int,
    exponent: float = 1.0,
    *,
    prefix: str = "config",
) -> ConfigurationDistribution:
    """A Zipf-shaped distribution: the i-th configuration has weight ``1/i^s``.

    Software market shares (operating systems, blockchain clients, wallets)
    are commonly Zipf-like: one dominant implementation, a long tail of
    alternatives.  ``exponent = 0`` degenerates to uniform; larger exponents
    concentrate more power in the head.
    """
    if exponent < 0:
        raise DistributionError(f"Zipf exponent must be non-negative, got {exponent}")
    labels = _labels(count, prefix)
    weights = {
        label: 1.0 / ((rank + 1) ** exponent) for rank, label in enumerate(labels)
    }
    return ConfigurationDistribution(weights)


def geometric_distribution(
    count: int,
    ratio: float = 0.5,
    *,
    prefix: str = "config",
) -> ConfigurationDistribution:
    """A geometric distribution: each configuration has ``ratio`` times the previous weight."""
    if not 0 < ratio <= 1:
        raise DistributionError(f"ratio must be in (0, 1], got {ratio}")
    labels = _labels(count, prefix)
    weights = {label: ratio**rank for rank, label in enumerate(labels)}
    return ConfigurationDistribution(weights)


def dirichlet_distribution(
    count: int,
    concentration: float = 1.0,
    *,
    rng: Optional[random.Random] = None,
    prefix: str = "config",
) -> ConfigurationDistribution:
    """A random distribution drawn from a symmetric Dirichlet.

    ``concentration`` (the Dirichlet α) controls how even the draw tends to
    be: large α produces nearly-uniform distributions, small α produces
    sparse, oligopoly-like draws.  Uses only the standard library
    (``random.Random.gammavariate``), so no numpy dependency is required.
    """
    if concentration <= 0:
        raise DistributionError(
            f"Dirichlet concentration must be positive, got {concentration}"
        )
    rng = rng or random.Random(0)
    labels = _labels(count, prefix)
    draws = [rng.gammavariate(concentration, 1.0) for _ in labels]
    total = sum(draws)
    if total <= 0:
        # Astronomically unlikely; retry once with fresh entropy to stay total.
        draws = [rng.gammavariate(concentration, 1.0) + 1e-12 for _ in labels]
        total = sum(draws)
    weights = {label: draw / total for label, draw in zip(labels, draws)}
    return ConfigurationDistribution(weights)


def oligopoly_distribution(
    dominant_count: int,
    dominant_share: float,
    tail_count: int,
    *,
    prefix: str = "config",
) -> ConfigurationDistribution:
    """An explicit oligopoly: ``dominant_count`` heads split ``dominant_share``
    evenly, and ``tail_count`` tail configurations split the remainder evenly.

    ``oligopoly_distribution(10, 0.96, 500)`` approximates the Bitcoin pool
    situation described in the paper's footnote (top ten pools above 96%).
    """
    if dominant_count <= 0 or tail_count < 0:
        raise DistributionError(
            "dominant count must be positive and tail count non-negative, got "
            f"{dominant_count} and {tail_count}"
        )
    if not 0 < dominant_share <= 1:
        raise DistributionError(
            f"dominant share must be in (0, 1], got {dominant_share}"
        )
    if tail_count == 0 and dominant_share < 1:
        raise DistributionError(
            "a tail share remains but tail_count is zero; increase dominant_share to 1"
        )
    weights = {}
    head_each = dominant_share / dominant_count
    for index in range(dominant_count):
        weights[f"{prefix}-head-{index}"] = head_each
    if tail_count:
        tail_each = (1.0 - dominant_share) / tail_count
        for index in range(tail_count):
            weights[f"{prefix}-tail-{index}"] = tail_each
    return ConfigurationDistribution(weights)


def perturbed_uniform(
    count: int,
    noise: float,
    *,
    rng: Optional[random.Random] = None,
    prefix: str = "config",
) -> ConfigurationDistribution:
    """A uniform distribution with multiplicative noise.

    Each share is multiplied by ``1 + u`` with ``u`` drawn uniformly from
    ``[-noise, +noise]`` and then renormalized; useful for property-based
    tests that need "nearly κ-optimal" inputs.
    """
    if not 0 <= noise < 1:
        raise DistributionError(f"noise must be in [0, 1), got {noise}")
    rng = rng or random.Random(0)
    labels = _labels(count, prefix)
    weights = {
        label: 1.0 * (1.0 + rng.uniform(-noise, noise)) for label in labels
    }
    return ConfigurationDistribution(weights)


def power_split(
    total_power: float,
    shares: Sequence[float],
    *,
    prefix: str = "participant",
) -> dict:
    """Split ``total_power`` across participants according to ``shares``.

    Returns a mapping participant id -> absolute power; the shares are
    normalized, so they may be given as percentages or raw weights.
    """
    if total_power <= 0:
        raise DistributionError(f"total power must be positive, got {total_power}")
    if not shares:
        raise DistributionError("at least one share is required")
    if any(share < 0 for share in shares):
        raise DistributionError("shares must be non-negative")
    total_share = sum(shares)
    if total_share <= 0:
        raise DistributionError("shares must have positive total")
    return {
        f"{prefix}-{index}": total_power * share / total_share
        for index, share in enumerate(shares)
    }
