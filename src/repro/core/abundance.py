"""Configuration abundance and relative configuration abundance (Section IV-B).

The paper adapts the ecology notion of *abundance*:

- **configuration abundance** — the number of individuals (replicas / voting
  power units) per replica configuration; relevant to classic BFT protocols
  where the replica count matters.
- **relative configuration abundance** — the associated percent composition;
  relevant to Bitcoin-like protocols where it represents the mining-power
  distribution.

An :class:`AbundanceVector` stores the absolute abundance per configuration
and converts to a :class:`~repro.core.distribution.ConfigurationDistribution`
for entropy analysis.  It also implements the abundance manipulation needed
by Propositions 1-3: selective increments (relative abundances changed).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Tuple

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import DistributionError

ConfigKey = Hashable


class AbundanceVector:
    """Absolute abundance (count or voting power) per configuration."""

    __slots__ = ("_abundance",)

    def __init__(self, abundance: Mapping[ConfigKey, float]) -> None:
        if not abundance:
            raise DistributionError("abundance vector needs at least one configuration")
        cleaned: Dict[ConfigKey, float] = {}
        for key, value in abundance.items():
            value = float(value)
            if value < 0 or math.isnan(value) or math.isinf(value):
                raise DistributionError(
                    f"abundance for {key!r} must be finite and non-negative, got {value}"
                )
            cleaned[key] = value
        if sum(cleaned.values()) <= 0:
            raise DistributionError("total abundance must be positive")
        self._abundance = cleaned

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, keys: Iterable[ConfigKey], *, abundance: float = 1.0) -> "AbundanceVector":
        """Every configuration gets the same abundance ``abundance``.

        With ``abundance == 1`` this is the classic BFT-SMR assumption of one
        replica per unique configuration; with ``abundance == ω`` it is the
        (κ, ω)-optimal shape of Definition 2.
        """
        keys = list(keys)
        if not keys:
            raise DistributionError("uniform abundance needs at least one configuration")
        if abundance <= 0:
            raise DistributionError(f"abundance must be positive, got {abundance}")
        return cls({key: abundance for key in keys})

    @classmethod
    def from_counts(cls, counts: Mapping[ConfigKey, int]) -> "AbundanceVector":
        """Build from integer replica counts per configuration."""
        for key, count in counts.items():
            if int(count) != count or count < 0:
                raise DistributionError(
                    f"count for {key!r} must be a non-negative integer, got {count}"
                )
        return cls({key: float(count) for key, count in counts.items()})

    # -- accessors -------------------------------------------------------------

    def abundance_of(self, key: ConfigKey) -> float:
        """Absolute abundance of ``key`` (0 when absent)."""
        return self._abundance.get(key, 0.0)

    def total(self) -> float:
        """Total abundance across all configurations (``n_t``)."""
        return sum(self._abundance.values())

    def configurations(self) -> Tuple[ConfigKey, ...]:
        return tuple(self._abundance.keys())

    def support(self) -> Tuple[ConfigKey, ...]:
        """Configurations with strictly positive abundance."""
        return tuple(key for key, value in self._abundance.items() if value > 0)

    def relative(self) -> Dict[ConfigKey, float]:
        """Relative configuration abundance (percent composition as fractions)."""
        total = self.total()
        return {key: value / total for key, value in self._abundance.items()}

    def to_distribution(self) -> ConfigurationDistribution:
        """The relative-abundance probability distribution for entropy analysis."""
        return ConfigurationDistribution(self._abundance)

    def entropy(self, *, base: float = 2.0) -> float:
        """Shannon entropy of the relative configuration abundance."""
        return self.to_distribution().entropy(base=base)

    def mean_abundance(self) -> float:
        """The mean abundance ω over the support."""
        positive = [value for value in self._abundance.values() if value > 0]
        return sum(positive) / len(positive)

    def has_same_relative_abundance(
        self, other: "AbundanceVector", *, tolerance: float = 1e-9
    ) -> bool:
        """True when both vectors have identical percent composition.

        This is the "unless the relative configuration abundance remains
        identical" escape clause of Propositions 1 and 2: identical relative
        abundance implies identical entropy.
        """
        mine = self.relative()
        theirs = other.relative()
        keys = set(mine) | set(theirs)
        return all(
            abs(mine.get(key, 0.0) - theirs.get(key, 0.0)) <= tolerance for key in keys
        )

    # -- transformations --------------------------------------------------------

    def incremented(self, increments: Mapping[ConfigKey, float]) -> "AbundanceVector":
        """Add individuals to selected configurations.

        New keys are allowed (a configuration appearing for the first time).
        Negative increments are allowed as long as no abundance goes negative,
        modeling replicas leaving the system.
        """
        updated: Dict[ConfigKey, float] = dict(self._abundance)
        for key, delta in increments.items():
            updated[key] = updated.get(key, 0.0) + float(delta)
            if updated[key] < 0:
                raise DistributionError(
                    f"increment would make abundance of {key!r} negative"
                )
        return AbundanceVector(updated)

    # -- dunder -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._abundance)

    def __iter__(self) -> Iterator[ConfigKey]:
        return iter(self._abundance)

    def __contains__(self, key: ConfigKey) -> bool:
        return key in self._abundance

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbundanceVector):
            return NotImplemented
        if set(self._abundance) != set(other._abundance):
            return False
        return all(
            math.isclose(self._abundance[key], other._abundance[key], abs_tol=1e-12)
            for key in self._abundance
        )

    def __repr__(self) -> str:
        return (
            f"AbundanceVector(configs={len(self)}, kappa={len(self.support())}, "
            f"total={self.total():.6g})"
        )
