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

Sampling is counter-based: replica ``index``'s choice in market ``m`` is
drawn at ``campaign_uniform(seed, index * M + m)``, so a population is a
pure function of its seed.  :meth:`SyntheticEcosystem.choices_at` reads one
index off the python backend's scalar ``market_choices`` loop, the
reference; populations are drawn a chunk of replicas at a time by the
active backend's kernel, through the one replica loop
:meth:`SyntheticEcosystem._replica_chunks` that both ``sample_population``
and the streaming generators use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backend import PythonBackend, get_backend
from repro.backend.base import MarketCumulative, market_choice
from repro.core.configuration import (
    ComponentKind,
    ReplicaConfiguration,
    SoftwareComponent,
)
from repro.core.exceptions import ConfigurationError
from repro.core.population import Replica, ReplicaPopulation
from repro.core.power import PowerRegime

#: Replicas per market-choice kernel call — the chunk of
#: :meth:`SyntheticEcosystem._replica_chunks`, and the default chunk of the
#: streaming generators: small enough that a chunk of Replica objects stays
#: in tens of megabytes, large enough that per-chunk overhead vanishes at
#: 10⁶ replicas.
DEFAULT_REPLICA_CHUNK_SIZE = 65_536


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
        """The components on offer for this kind, built once per market."""
        return self._components

    @cached_property
    def _components(self) -> Tuple[SoftwareComponent, ...]:
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
        ``u * total`` (:func:`~repro.backend.base.market_choice`), so the
        inverse-CDF draw depends only on the share tuple and ``u`` — the
        deterministic primitive the counter-based population sampling is
        built on.
        """
        total, running = self._cumulative
        return market_choice(total, running, u)


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
        it (the property the streaming generators rely on).  It is one
        index of the python backend's scalar ``market_choices`` loop, the
        reference every backend's kernel must equal.
        """
        (choices,) = PythonBackend().market_choices(
            seed, index, index + 1, self._market_sums
        )
        return choices

    @cached_property
    def _market_sums(self) -> Tuple[MarketCumulative, ...]:
        """Each market's share total and running sums: the kernels' ``markets``."""
        return tuple(market._cumulative for market in self.markets)

    def configuration_for(self, choices: Sequence[int]) -> ReplicaConfiguration:
        """The configuration picking ``choices[m]`` from market ``m``.

        Configurations share each market's component objects, so a
        component's identifier is formatted once per market.
        """
        return ReplicaConfiguration(
            [
                market.components()[choice]
                for market, choice in zip(self.markets, choices)
            ]
        )

    def configuration_at(self, seed: int, index: int) -> ReplicaConfiguration:
        """Replica ``index``'s configuration — a pure function of ``(seed, index)``."""
        return self.configuration_for(self.choices_at(seed, index))

    def _replica_chunks(
        self,
        count: int,
        *,
        seed: int,
        chunk_size: int,
        power_of: Callable[[int], float],
        attested_count: int,
        prefix: str,
    ) -> Iterator[Tuple[Replica, ...]]:
        """The sampled population's replicas, ``chunk_size`` at a time.

        The one replica loop behind :meth:`sample_population` and
        :func:`repro.datasets.generators.stream_replica_chunks`: each chunk's
        market choices come from one call of the active backend's
        ``market_choices`` kernel, so replica ``index`` is the pure function
        of ``(seed, index)`` that :meth:`configuration_at` describes, for
        every chunk size.  Replica ``index`` gets id ``f"{prefix}-{index}"``,
        power ``power_of(index)`` and is attested when
        ``index < attested_count``.  Arguments are trusted: the public
        callers validate them.
        """
        backend = get_backend()
        markets = self._market_sums
        # Distinct configurations are few (the product of market sizes), so
        # one ReplicaConfiguration per distinct choice tuple is shared.
        cache: Dict[Tuple[int, ...], ReplicaConfiguration] = {}
        for start in range(0, count, chunk_size):
            stop = min(start + chunk_size, count)
            chunk: List[Replica] = []
            for index, choices in enumerate(
                backend.market_choices(seed, start, stop, markets), start
            ):
                configuration = cache.get(choices)
                if configuration is None:
                    configuration = cache[choices] = self.configuration_for(choices)
                chunk.append(
                    Replica(
                        replica_id=f"{prefix}-{index}",
                        configuration=configuration,
                        power=power_of(index),
                        attested=index < attested_count,
                    )
                )
            yield tuple(chunk)

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
        guarantees neither).  The choices are drawn by the backend kernel,
        one call per :data:`DEFAULT_REPLICA_CHUNK_SIZE` replicas
        (:meth:`_replica_chunks`).

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
        chunks = self._replica_chunks(
            count,
            seed=seed,
            chunk_size=DEFAULT_REPLICA_CHUNK_SIZE,
            power_of=(lambda index: 1.0)
            if power is None
            else (lambda index: float(power[index])),
            attested_count=round(count * attested_fraction),
            prefix=prefix,
        )
        return ReplicaPopulation(
            [replica for chunk in chunks for replica in chunk], regime=regime
        )


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
