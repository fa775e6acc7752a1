"""Synthetic software-ecosystem market shares.

The paper's Section III-A argues that replica diversity comes from the choice
of operating system, consensus client, wallet / key-management module, crypto
library and trusted hardware.  Real market-share data for blockchain node
software is not redistributable, so this module ships *synthetic but shaped*
ecosystems: per component kind, a handful of alternatives with Zipf-like
popularity, which reproduces the qualitative situation the paper describes
(one dominant choice per slot, a short tail of alternatives).

The ecosystems are used to generate replica populations whose configuration
census has realistic (low) entropy, to drive exploit campaigns ("a zero-day in
the dominant OS"), and to give the diversity planner something to optimize.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.backend.base import campaign_uniform
from repro.core.configuration import (
    ComponentKind,
    ReplicaConfiguration,
    SoftwareComponent,
)
from repro.core.exceptions import ConfigurationError
from repro.core.population import Replica, ReplicaPopulation
from repro.core.power import PowerRegime


@dataclass(frozen=True)
class ComponentMarket:
    """Market shares for one component kind.

    Attributes:
        kind: the component slot.
        shares: mapping component name -> market share (normalized on use).
    """

    kind: ComponentKind
    shares: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.shares:
            raise ConfigurationError(f"market for {self.kind.value!r} has no components")
        if not all(math.isfinite(share) for _, share in self.shares):
            raise ConfigurationError("market shares must be finite")
        if any(share < 0 for _, share in self.shares):
            raise ConfigurationError("market shares must be non-negative")
        if sum(share for _, share in self.shares) <= 0:
            raise ConfigurationError("market shares must have positive total")

    def components(self) -> Tuple[SoftwareComponent, ...]:
        """The components on offer for this kind."""
        return tuple(SoftwareComponent(self.kind, name) for name, _ in self.shares)

    def normalized_shares(self) -> Dict[str, float]:
        """Market shares normalized to sum to one."""
        total = sum(share for _, share in self.shares)
        return {name: share / total for name, share in self.shares}

    def sample(self, rng: random.Random) -> SoftwareComponent:
        """Sample one component according to the market shares."""
        names = [name for name, _ in self.shares]
        weights = [share for _, share in self.shares]
        name = rng.choices(names, weights=weights, k=1)[0]
        return SoftwareComponent(self.kind, name)

    @cached_property
    def _cumulative(self) -> Tuple[float, Tuple[float, ...]]:
        """The shares' total and their running sums, each added left to right once."""
        total = sum(share for _, share in self.shares)
        running = tuple(accumulate((share for _, share in self.shares), initial=0.0))
        return total, running[1:]

    def choice_index(self, u: float) -> int:
        """Index of the market choice at quantile ``u`` in ``[0, 1)``.

        The first choice whose cumulative (unnormalized) share exceeds
        ``u * total``, so the inverse-CDF draw depends only on the share tuple
        and ``u`` — the deterministic primitive the counter-based population
        sampling is built on.  The running sums never decrease, so bisecting
        them finds the index a left-to-right walk would; a target past the
        last sum (rounding) clamps to the last choice.
        """
        total, running = self._cumulative
        return min(bisect_right(running, u * total), len(running) - 1)

    def component_at(self, u: float) -> SoftwareComponent:
        """The component at quantile ``u`` (see :meth:`choice_index`)."""
        name, _ = self.shares[self.choice_index(u)]
        return SoftwareComponent(self.kind, name)


@dataclass(frozen=True)
class SyntheticEcosystem:
    """A collection of component markets, one per kind."""

    markets: Tuple[ComponentMarket, ...]

    def __post_init__(self) -> None:
        kinds = [market.kind for market in self.markets]
        if len(set(kinds)) != len(kinds):
            raise ConfigurationError("duplicate component kind in ecosystem")
        if not self.markets:
            raise ConfigurationError("ecosystem needs at least one component market")

    def market_for(self, kind: ComponentKind) -> ComponentMarket:
        for market in self.markets:
            if market.kind is kind:
                return market
        raise ConfigurationError(f"ecosystem has no market for kind {kind.value!r}")

    def kinds(self) -> Tuple[ComponentKind, ...]:
        return tuple(market.kind for market in self.markets)

    def components(self) -> Tuple[SoftwareComponent, ...]:
        """Every component on offer, market-major — the catalog-building order."""
        return tuple(
            component
            for market in self.markets
            for component in market.components()
        )

    def sample_configuration(self, rng: random.Random) -> ReplicaConfiguration:
        """Sample one full replica configuration component-by-component."""
        return ReplicaConfiguration([market.sample(rng) for market in self.markets])

    def choices_at(self, seed: int, index: int) -> Tuple[int, ...]:
        """Replica ``index``'s market choice indices in the seeded stream.

        Market ``m`` of replica ``index`` draws
        ``campaign_uniform(seed, index * len(markets) + m)`` — the same
        counter-based splitmix64 stream the campaign kernels use, so sampled
        ecosystems are identical across processes, platforms and backends,
        and any replica can be generated without generating the ones before
        it (the property the streaming generators rely on).
        """
        market_count = len(self.markets)
        return tuple(
            market.choice_index(
                campaign_uniform(seed, index * market_count + position)
            )
            for position, market in enumerate(self.markets)
        )

    def configuration_for(self, choices: Sequence[int]) -> ReplicaConfiguration:
        """The configuration picking ``choices[m]`` from market ``m``."""
        return ReplicaConfiguration(
            [
                SoftwareComponent(market.kind, market.shares[choice][0])
                for market, choice in zip(self.markets, choices)
            ]
        )

    def configuration_at(self, seed: int, index: int) -> ReplicaConfiguration:
        """Replica ``index``'s configuration — a pure function of ``(seed, index)``."""
        return self.configuration_for(self.choices_at(seed, index))

    def sample_population(
        self,
        count: int,
        *,
        seed: int = 0,
        power: Optional[Sequence[float]] = None,
        attested_fraction: float = 0.0,
        regime: PowerRegime = PowerRegime.REPLICA_COUNT,
        prefix: str = "replica",
    ) -> ReplicaPopulation:
        """Sample a replica population whose configurations follow the markets.

        Replica ``index`` is :meth:`configuration_at`'s pure function of
        ``(seed, index)`` on the counter-based splitmix64 stream, so the
        sampled population is bit-identical across processes, platforms and
        compute backends (the stdlib ``random`` module it previously used
        guarantees neither).

        Args:
            count: number of replicas.
            seed: counter-based RNG seed for reproducibility.
            power: optional per-replica absolute power (defaults to 1 each).
            attested_fraction: fraction of replicas marked as attested, chosen
                deterministically as the first ``round(count * fraction)``.
            regime: power regime recorded on the population.
            prefix: replica id prefix.
        """
        if count <= 0:
            raise ConfigurationError(f"population count must be positive, got {count}")
        if power is not None and len(power) != count:
            raise ConfigurationError(
                f"got {len(power)} power values for {count} replicas"
            )
        if not 0.0 <= attested_fraction <= 1.0:
            raise ConfigurationError(
                f"attested fraction must be in [0, 1], got {attested_fraction}"
            )
        attested_count = round(count * attested_fraction)
        # Distinct configurations are few (the product of market sizes), so
        # one ReplicaConfiguration per distinct choice tuple is shared.
        cache: Dict[Tuple[int, ...], ReplicaConfiguration] = {}
        replicas: List[Replica] = []
        for index in range(count):
            choices = self.choices_at(seed, index)
            configuration = cache.get(choices)
            if configuration is None:
                configuration = self.configuration_for(choices)
                cache[choices] = configuration
            replicas.append(
                Replica(
                    replica_id=f"{prefix}-{index}",
                    configuration=configuration,
                    power=1.0 if power is None else float(power[index]),
                    attested=index < attested_count,
                )
            )
        return ReplicaPopulation(replicas, regime=regime)

    def component_exposure(self) -> Dict[str, float]:
        """Expected fraction of replicas exposed to each component, by identifier."""
        exposure: Dict[str, float] = {}
        for market in self.markets:
            for name, share in market.normalized_shares().items():
                exposure[SoftwareComponent(market.kind, name).identifier] = share
        return exposure


def default_ecosystem() -> SyntheticEcosystem:
    """A moderately diverse ecosystem: realistic Zipf-ish shares per slot."""
    return SyntheticEcosystem(
        markets=(
            ComponentMarket(
                ComponentKind.OPERATING_SYSTEM,
                (("linux", 0.78), ("windows-server", 0.13), ("freebsd", 0.06), ("openbsd", 0.03)),
            ),
            ComponentMarket(
                ComponentKind.CONSENSUS_CLIENT,
                (("client-alpha", 0.66), ("client-beta", 0.24), ("client-gamma", 0.10)),
            ),
            ComponentMarket(
                ComponentKind.WALLET,
                (("builtin-wallet", 0.55), ("hardware-wallet", 0.25), ("mobile-wallet", 0.20)),
            ),
            ComponentMarket(
                ComponentKind.CRYPTO_LIBRARY,
                (("openssl", 0.70), ("libsodium", 0.20), ("boringssl", 0.10)),
            ),
            ComponentMarket(
                ComponentKind.TRUSTED_HARDWARE,
                (("intel-sgx", 0.50), ("tpm-2.0", 0.30), ("arm-trustzone", 0.15), ("amd-psp", 0.05)),
            ),
        )
    )


def skewed_ecosystem() -> SyntheticEcosystem:
    """A monoculture-leaning ecosystem: one component dominates every slot.

    Used to show how low configuration entropy translates into large
    single-vulnerability compromises.
    """
    return SyntheticEcosystem(
        markets=(
            ComponentMarket(
                ComponentKind.OPERATING_SYSTEM,
                (("linux", 0.95), ("windows-server", 0.04), ("freebsd", 0.01)),
            ),
            ComponentMarket(
                ComponentKind.CONSENSUS_CLIENT,
                (("client-alpha", 0.92), ("client-beta", 0.08)),
            ),
            ComponentMarket(
                ComponentKind.CRYPTO_LIBRARY,
                (("openssl", 0.97), ("libsodium", 0.03)),
            ),
        )
    )


def diverse_ecosystem() -> SyntheticEcosystem:
    """An idealized ecosystem with near-uniform market shares per slot."""
    return SyntheticEcosystem(
        markets=(
            ComponentMarket(
                ComponentKind.OPERATING_SYSTEM,
                (("linux", 0.25), ("windows-server", 0.25), ("freebsd", 0.25), ("openbsd", 0.25)),
            ),
            ComponentMarket(
                ComponentKind.CONSENSUS_CLIENT,
                (("client-alpha", 0.34), ("client-beta", 0.33), ("client-gamma", 0.33)),
            ),
            ComponentMarket(
                ComponentKind.CRYPTO_LIBRARY,
                (("openssl", 0.34), ("libsodium", 0.33), ("boringssl", 0.33)),
            ),
        )
    )
