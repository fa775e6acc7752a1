"""Tests for streaming population generation and the counter-based sampler.

Ecosystem sampling now derives every market choice from the counter-based
splitmix64 stream (``campaign_uniform``), making replica ``index`` a pure
function of ``(seed, index)``.  That contract is what this module pins:

- a hardcoded snapshot of the choice/configuration stream, so any accidental
  change to the sampling order or the hash constants fails loudly (the
  golden snapshots of every sampled-population experiment depend on it);
- chunked streaming (``stream_replica_chunks``) equals the one-shot
  ``sample_population`` for every chunk size, on every backend setting;
- generator argument validation.
"""

from __future__ import annotations

import math

import pytest

from repro.backend.base import campaign_uniform
from repro.core.configuration import ComponentKind
from repro.core.exceptions import ConfigurationError
from repro.datasets.generators import stream_replica_chunks
from repro.datasets.software_ecosystem import (
    ComponentMarket,
    default_ecosystem,
    skewed_ecosystem,
)


def _walk_cumulative_shares(shares, u):
    """The left-to-right walk ``ComponentMarket.choice_index`` must equal."""
    target = u * sum(share for _, share in shares)
    accumulated = 0.0
    for index, (_, share) in enumerate(shares):
        accumulated += share
        if target < accumulated:
            return index
    return len(shares) - 1


class TestCounterSamplingSnapshot:
    """Pins the exact sampling stream (regenerating goldens moves these)."""

    def test_choice_stream_snapshot(self):
        ecosystem = default_ecosystem()
        assert [ecosystem.choices_at(11, index) for index in range(4)] == [
            (0, 0, 1, 0, 0),
            (0, 0, 1, 0, 3),
            (0, 0, 2, 2, 3),
            (0, 0, 2, 1, 1),
        ]

    def test_configuration_snapshot(self):
        configuration = default_ecosystem().configuration_at(11, 0)
        names = {
            kind: configuration.component(kind).name
            for kind in (
                ComponentKind.CONSENSUS_CLIENT,
                ComponentKind.CRYPTO_LIBRARY,
                ComponentKind.OPERATING_SYSTEM,
                ComponentKind.TRUSTED_HARDWARE,
                ComponentKind.WALLET,
            )
        }
        assert names == {
            ComponentKind.CONSENSUS_CLIENT: "client-alpha",
            ComponentKind.CRYPTO_LIBRARY: "openssl",
            ComponentKind.OPERATING_SYSTEM: "linux",
            ComponentKind.TRUSTED_HARDWARE: "intel-sgx",
            ComponentKind.WALLET: "hardware-wallet",
        }

    def test_choices_follow_the_campaign_uniform_stream(self):
        ecosystem = default_ecosystem()
        markets = ecosystem.markets
        index = 6
        expected = tuple(
            market.choice_index(
                campaign_uniform(11, index * len(markets) + position)
            )
            for position, market in enumerate(markets)
        )
        assert ecosystem.choices_at(11, index) == expected

    def test_sampling_is_a_pure_function_of_seed_and_index(self):
        ecosystem = default_ecosystem()
        small = ecosystem.sample_population(10, seed=5)
        large = ecosystem.sample_population(200, seed=5)
        for left, right in zip(small, large):
            assert left.configuration == right.configuration
            assert left.replica_id == right.replica_id

    def test_choice_index_walks_cumulative_shares(self):
        market = default_ecosystem().market_for(ComponentKind.OPERATING_SYSTEM)
        assert market.choice_index(0.0) == 0
        assert market.choice_index(0.9999999) == len(market.shares) - 1
        # The bisection equals the left-to-right walk, with zero-share
        # entries, non-dyadic shares and u just below 1.
        markets = [*default_ecosystem().markets, *skewed_ecosystem().markets]
        markets += [
            ComponentMarket(ComponentKind.OPERATING_SYSTEM, shares)
            for shares in (
                (("a", 0.5), ("b", 0.25), ("c", 0.25)),
                (("a", 0.0), ("b", 0.3), ("c", 0.0), ("d", 0.0), ("e", 0.7), ("f", 0.0)),
                (("a", 0.1), ("b", 0.2), ("c", 0.0), ("d", 1 / 3), ("e", 0.0)),
                (("a", 3.0), ("b", 0.0), ("c", 7.0)),
            )
        ]
        for market in markets:
            shares = market.shares
            total = sum(share for _, share in shares)
            quantiles = [step / 997 for step in range(997)]
            quantiles += [math.nextafter(1.0, 0.0), 1.0 - 1e-12, 1.0 - 1e-9]
            # Quantiles with u * total exactly on a running sum, where the
            # walk moves on to the next choice.
            accumulated, hits = 0.0, 0
            for _, share in shares:
                accumulated += share
                u = accumulated / total
                for _ in range(4):
                    if u * total == accumulated:
                        quantiles.append(u)
                        hits += 1
                        break
                    u = math.nextafter(u, 0.0 if u * total > accumulated else 1.0)
            assert hits >= len(shares) - 1
            assert [market.choice_index(u) for u in quantiles] == [
                _walk_cumulative_shares(shares, u) for u in quantiles
            ]


class TestStreamingEqualsOneShot:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 500, 1000])
    def test_chunked_stream_matches_sample_population(self, chunk_size):
        ecosystem = default_ecosystem()
        population = ecosystem.sample_population(
            137, seed=21, attested_fraction=0.3
        )
        streamed = [
            replica
            for chunk in stream_replica_chunks(
                ecosystem,
                137,
                seed=21,
                chunk_size=chunk_size,
                attested_fraction=0.3,
            )
            for replica in chunk
        ]
        assert len(streamed) == len(population.replicas())
        for left, right in zip(streamed, population):
            assert left.replica_id == right.replica_id
            assert left.configuration == right.configuration
            assert left.power == right.power
            assert left.attested == right.attested

    def test_chunk_sizes_partition_exactly(self):
        ecosystem = skewed_ecosystem()
        chunks = list(stream_replica_chunks(ecosystem, 100, seed=2, chunk_size=33))
        assert [len(chunk) for chunk in chunks] == [33, 33, 33, 1]

    def test_validation(self):
        ecosystem = default_ecosystem()
        with pytest.raises(ConfigurationError):
            next(iter(stream_replica_chunks(ecosystem, 0)))
        with pytest.raises(ConfigurationError):
            next(iter(stream_replica_chunks(ecosystem, 10, chunk_size=0)))
        with pytest.raises(ConfigurationError):
            next(
                iter(
                    stream_replica_chunks(ecosystem, 10, attested_fraction=1.5)
                )
            )
        with pytest.raises(ConfigurationError):
            next(iter(stream_replica_chunks(ecosystem, 10, power=-1.0)))
