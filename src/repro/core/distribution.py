"""Probability distributions over the configuration space (Section IV-A).

A :class:`ConfigurationDistribution` maps each configuration ``d_i`` to the
fraction ``p_i`` of voting power (or of replicas) running it.  It is the
object whose Shannon entropy the paper uses to quantify replica diversity,
and it is produced either directly (Figure 1 builds it from the mining-pool
hash-power snapshot) or as the census of a
:class:`~repro.core.population.ReplicaPopulation`.

Keys may be :class:`~repro.core.configuration.ReplicaConfiguration` objects or
opaque labels (strings); the entropy mathematics only needs the shares.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core import entropy as entropy_module
from repro.core.diversity_index import diversity_profile
from repro.core.exceptions import DistributionError

ConfigKey = Hashable


class ConfigurationDistribution:
    """An immutable probability distribution ``p`` over configurations.

    The constructor accepts raw non-negative weights (absolute voting power,
    replica counts, hash-power percentages, ...) and normalizes them, so
    callers never need to pre-normalize.  Zero-weight configurations are kept
    in the support description but excluded from κ (the count of *non-zero*
    shares, per Definition 1).

    The instance is frozen after ``__init__`` (no mutating API), so derived
    quantities — the probability vector, its descending sort, entropies and
    the full ranking — are computed once and memoized in ``_cache``;
    analysis hot paths that interrogate the same census thousands of times
    pay for each derivation only once.
    """

    __slots__ = ("_shares", "_cache")

    def __init__(self, weights: Mapping[ConfigKey, float]) -> None:
        if not weights:
            raise DistributionError("a distribution needs at least one configuration")
        cleaned: Dict[ConfigKey, float] = {}
        for key, weight in weights.items():
            weight = float(weight)
            if weight < 0 or math.isnan(weight) or math.isinf(weight):
                raise DistributionError(
                    f"weight for {key!r} must be a finite non-negative number, got {weight}"
                )
            cleaned[key] = weight
        total = sum(cleaned.values())
        if total <= 0:
            raise DistributionError("total weight must be positive")
        self._shares: Dict[ConfigKey, float] = {
            key: weight / total for key, weight in cleaned.items()
        }
        self._cache: Dict[object, object] = {}

    def _memoized(self, key, compute):
        """Value of ``compute()`` cached under ``key`` for this instance."""
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_weights(cls, weights: Mapping[ConfigKey, float]) -> "ConfigurationDistribution":
        """Alias of the constructor, for readability at call sites."""
        return cls(weights)

    @classmethod
    def from_counts(cls, counts: Mapping[ConfigKey, int]) -> "ConfigurationDistribution":
        """Build from integer configuration abundances (replica counts)."""
        for key, count in counts.items():
            if int(count) != count or count < 0:
                raise DistributionError(
                    f"count for {key!r} must be a non-negative integer, got {count}"
                )
        return cls({key: float(count) for key, count in counts.items()})

    @classmethod
    def uniform(cls, keys: Iterable[ConfigKey]) -> "ConfigurationDistribution":
        """The uniform distribution over ``keys`` (κ-optimal by construction)."""
        keys = list(keys)
        if not keys:
            raise DistributionError("uniform distribution needs at least one configuration")
        if len(set(keys)) != len(keys):
            raise DistributionError("uniform distribution keys must be unique")
        share = 1.0 / len(keys)
        return cls({key: share for key in keys})

    @classmethod
    def uniform_labels(cls, count: int, *, prefix: str = "config") -> "ConfigurationDistribution":
        """A uniform distribution over ``count`` synthetic labels."""
        if count <= 0:
            raise DistributionError(f"count must be positive, got {count}")
        return cls.uniform([f"{prefix}-{index}" for index in range(count)])

    @classmethod
    def from_probabilities(
        cls,
        probabilities: Sequence[float],
        *,
        keys: Optional[Sequence[ConfigKey]] = None,
    ) -> "ConfigurationDistribution":
        """Build from an already-normalized probability vector.

        When ``keys`` is omitted, synthetic ``config-<i>`` labels are used.
        """
        if keys is None:
            keys = [f"config-{index}" for index in range(len(probabilities))]
        if len(keys) != len(probabilities):
            raise DistributionError(
                f"got {len(keys)} keys for {len(probabilities)} probabilities"
            )
        return cls(dict(zip(keys, probabilities)))

    # -- accessors -------------------------------------------------------------

    def share(self, key: ConfigKey) -> float:
        """The share ``p_i`` of configuration ``key`` (0 when absent)."""
        return self._shares.get(key, 0.0)

    def shares(self) -> Dict[ConfigKey, float]:
        """A copy of the full mapping configuration -> share."""
        return dict(self._shares)

    def probabilities(self) -> Tuple[float, ...]:
        """The probability vector, in insertion order (memoized)."""
        return self._memoized("probabilities", lambda: tuple(self._shares.values()))

    def sorted_probabilities(self) -> Tuple[float, ...]:
        """The probability vector sorted in descending order (memoized).

        This is the layout the Monte-Carlo kernels want: the attacker's
        greedy top-k picks are then a prefix of the vulnerable entries.
        """
        return self._memoized(
            "sorted_probabilities",
            lambda: tuple(sorted(self._shares.values(), reverse=True)),
        )

    def configurations(self) -> Tuple[ConfigKey, ...]:
        """The configuration keys, in insertion order."""
        return tuple(self._shares.keys())

    def support(self) -> Tuple[ConfigKey, ...]:
        """Configurations with a strictly positive share."""
        return self._memoized(
            "support",
            lambda: tuple(key for key, share in self._shares.items() if share > 0),
        )

    def support_size(self) -> int:
        """κ — the number of configurations with non-zero share."""
        return len(self.support())

    def _ranked(self) -> Tuple[Tuple[ConfigKey, float], ...]:
        return self._memoized(
            "ranked",
            lambda: tuple(sorted(self._shares.items(), key=lambda item: -item[1])),
        )

    def largest(self, count: int = 1) -> Tuple[Tuple[ConfigKey, float], ...]:
        """The ``count`` largest (configuration, share) pairs.

        The full ranking is computed once and memoized, so repeated calls
        (with any ``count``) no longer re-sort the share map.
        """
        if count < 0:
            raise DistributionError(f"count must be non-negative, got {count}")
        return self._ranked()[:count]

    # -- diversity metrics ------------------------------------------------------

    def entropy(self, *, base: float = 2.0) -> float:
        """Shannon entropy ``H(p)`` of this distribution (Section IV-A).

        The shares are already validated and normalized by the constructor,
        so this runs the loop of :func:`repro.core.entropy.shannon_entropy`
        without re-validating — the same bits — memoized per ``base``.
        """
        return self._memoized(
            ("entropy", base),
            lambda: entropy_module.unchecked_shannon_entropy(
                self.probabilities(), base=base
            ),
        )

    def normalized_entropy(self) -> float:
        """Entropy divided by the maximum for the current support size."""
        return entropy_module.normalized_entropy(self.probabilities())

    def max_entropy(self, *, base: float = 2.0) -> float:
        """The entropy this distribution would have if it were κ-optimal
        (memoized per base)."""
        return self._memoized(
            ("max_entropy", base),
            lambda: entropy_module.max_entropy(self.support_size(), base=base),
        )

    def entropy_deficit(self, *, base: float = 2.0) -> float:
        """``max_entropy - entropy``; zero exactly for κ-optimal distributions."""
        return self.max_entropy(base=base) - self.entropy(base=base)

    def effective_configurations(self) -> float:
        """Hill number of order 1 (effective number of configurations)."""
        return entropy_module.effective_configurations(self.probabilities())

    def diversity_profile(self, *, base: float = 2.0) -> dict:
        """All supported diversity indices in one dictionary."""
        return diversity_profile(self.probabilities(), base=base)

    def is_uniform(self, *, tolerance: float = 1e-9) -> bool:
        """True when every non-zero share equals every other within tolerance."""
        positive = [share for share in self._shares.values() if share > 0]
        if not positive:
            return False
        expected = 1.0 / len(positive)
        return all(abs(share - expected) <= tolerance for share in positive)

    # -- transformations ---------------------------------------------------------

    def restrict(self, keys: Iterable[ConfigKey]) -> "ConfigurationDistribution":
        """Distribution conditioned on the given configurations (renormalized)."""
        keys = set(keys)
        selected = {key: share for key, share in self._shares.items() if key in keys}
        if not selected or sum(selected.values()) <= 0:
            raise DistributionError("restriction has no probability mass")
        return ConfigurationDistribution(selected)

    def without_zero_shares(self) -> "ConfigurationDistribution":
        """Drop zero-share configurations from the key set."""
        return ConfigurationDistribution(
            {key: share for key, share in self._shares.items() if share > 0}
        )

    def merge(
        self,
        other: "ConfigurationDistribution",
        *,
        self_weight: float = 0.5,
    ) -> "ConfigurationDistribution":
        """Convex mixture of two distributions.

        ``self_weight`` is the weight of ``self``; ``other`` gets the
        complement.  Models, for example, combining the attested and
        non-attested sub-populations of the paper's concluding two-class
        design with their respective voting weights.
        """
        if not 0.0 <= self_weight <= 1.0:
            raise DistributionError(f"self_weight must be within [0, 1], got {self_weight}")
        combined: Dict[ConfigKey, float] = {}
        for key, share in self._shares.items():
            combined[key] = combined.get(key, 0.0) + self_weight * share
        for key, share in other._shares.items():
            combined[key] = combined.get(key, 0.0) + (1.0 - self_weight) * share
        return ConfigurationDistribution(combined)

    def reweighted(
        self, weights: Mapping[ConfigKey, float]
    ) -> "ConfigurationDistribution":
        """Multiply each configuration's share by a per-configuration weight.

        Missing keys keep weight 1.  The result is renormalized.  This models
        voting-weight policies (e.g. down-weighting non-attested replicas).
        """
        adjusted: Dict[ConfigKey, float] = {}
        for key, share in self._shares.items():
            factor = float(weights.get(key, 1.0))
            if factor < 0:
                raise DistributionError(f"weight for {key!r} must be non-negative")
            adjusted[key] = share * factor
        if sum(adjusted.values()) <= 0:
            raise DistributionError("reweighting removed all probability mass")
        return ConfigurationDistribution(adjusted)

    def split_configuration(
        self, key: ConfigKey, parts: int, *, prefix: Optional[str] = None
    ) -> "ConfigurationDistribution":
        """Split one configuration's share uniformly into ``parts`` new keys.

        This is the operation behind Figure 1's residual treatment: the
        unknown 0.87% of hash power is split uniformly among ``x`` additional
        miners, each assumed to run its own unique configuration.
        """
        if parts <= 0:
            raise DistributionError(f"parts must be positive, got {parts}")
        if key not in self._shares:
            raise DistributionError(f"configuration {key!r} not in distribution")
        share = self._shares[key]
        result = {k: v for k, v in self._shares.items() if k != key}
        label = prefix if prefix is not None else str(key)
        piece = share / parts
        for index in range(parts):
            result[f"{label}#{index}"] = piece
        return ConfigurationDistribution(result)

    # -- dunder ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._shares)

    def __iter__(self) -> Iterator[ConfigKey]:
        return iter(self._shares)

    def __contains__(self, key: ConfigKey) -> bool:
        return key in self._shares

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigurationDistribution):
            return NotImplemented
        if set(self._shares) != set(other._shares):
            return False
        return all(
            math.isclose(self._shares[key], other._shares[key], abs_tol=1e-12)
            for key in self._shares
        )

    def __hash__(self) -> int:  # pragma: no cover - distributions rarely hashed
        return hash(tuple(sorted((str(k), round(v, 12)) for k, v in self._shares.items())))

    def __repr__(self) -> str:
        return (
            f"ConfigurationDistribution(configs={len(self)}, "
            f"kappa={self.support_size()}, H={self.entropy():.4f} bits)"
        )
