"""Parametric configuration-distribution generators.

Figure 1 uses a fixed empirical distribution plus a uniform residual; the
``safety_violation`` experiment also sweeps uniform, Zipf and synthetic
oligopoly shapes so the entropy/resilience analysis covers systematically
varied concentration levels.  Every generator is deterministic, which keeps
every experiment reproducible.

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

from typing import Iterator, List, Tuple

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
