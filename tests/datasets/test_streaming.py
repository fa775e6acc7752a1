"""Tests for streaming population generation and the counter-based sampler.

Ecosystem sampling now derives every market choice from the counter-based
splitmix64 stream (``campaign_uniform``), making replica ``index`` a pure
function of ``(seed, index)``.  That contract is what this module pins:

- a hardcoded snapshot of the choice/configuration stream, so any accidental
  change to the sampling order or the hash constants fails loudly (the
  golden snapshots of every sampled-population experiment depend on it);
- chunked streaming (``stream_replica_chunks``) equals the one-shot
  ``sample_population`` for every chunk size, on every backend setting;
- every backend's ``market_choices`` kernel equals the scalar
  ``choices_at`` reference, and the NumPy path draws without it;
- generator argument validation.
"""

from __future__ import annotations

import math

import pytest

from repro.backend import NumpyBackend, available_backends, get_backend, use_backend
from repro.backend import base as backend_base
from repro.backend import python_backend
from repro.backend.base import campaign_uniform, market_choice
from repro.core.configuration import ComponentKind
from repro.core.exceptions import BackendError, ConfigurationError
from repro.datasets import software_ecosystem
from repro.datasets.generators import stream_replica_chunks
from repro.datasets.software_ecosystem import (
    DEFAULT_REPLICA_CHUNK_SIZE,
    ComponentMarket,
    SyntheticEcosystem,
    default_ecosystem,
    skewed_ecosystem,
)

needs_numpy = pytest.mark.skipif(
    not NumpyBackend.is_available(), reason="numpy not installed"
)

#: Seeds the kernels must reduce modulo 2^64 exactly as the scalar stream.
SEEDS = (0, 11, -1, -(2**63), 2**63, 2**63 + 7, 2**64 - 1, 2**64 + 5)

#: Markets with zero-share entries, a non-normalized total and one choice.
ZERO_SHARE_ECOSYSTEM = SyntheticEcosystem(
    markets=(
        ComponentMarket(
            ComponentKind.OPERATING_SYSTEM,
            (("a", 0.0), ("b", 0.3), ("c", 0.0), ("d", 0.0), ("e", 0.7), ("f", 0.0)),
        ),
        ComponentMarket(
            ComponentKind.CONSENSUS_CLIENT, (("x", 3.0), ("y", 0.0), ("z", 7.0))
        ),
        ComponentMarket(ComponentKind.WALLET, (("only", 1.0),)),
    )
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
        market = next(
            m for m in default_ecosystem().markets if m.kind is ComponentKind.OPERATING_SYSTEM
        )
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
            walked = [_walk_cumulative_shares(shares, u) for u in quantiles]
            assert [market.choice_index(u) for u in quantiles] == walked
            total, running = market._cumulative
            assert [market_choice(total, running, u) for u in quantiles] == walked
            if NumpyBackend.is_available():
                # The array kernel's searchsorted(side="right") + clamp picks
                # the same index on ties, zero shares and u just below 1.
                import numpy

                from repro.backend.numpy_backend import _choice_indices

                picked = _choice_indices(numpy.array(quantiles), total, running)
                assert picked.tolist() == walked


class TestMarketChoiceKernel:
    """``market_choices`` on every backend equals the scalar ``choices_at``."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernel_equals_choices_at(self, backend, seed):
        kernel = get_backend(backend)
        for ecosystem in (default_ecosystem(), skewed_ecosystem(), ZERO_SHARE_ECOSYSTEM):
            # Ranges that start off a chunk boundary, one straddling the
            # default chunk size.
            for start, stop in (
                (37, 301),
                (DEFAULT_REPLICA_CHUNK_SIZE - 5, DEFAULT_REPLICA_CHUNK_SIZE + 7),
                (5, 6),
            ):
                expected = [
                    ecosystem.choices_at(seed, index) for index in range(start, stop)
                ]
                assert (
                    kernel.market_choices(seed, start, stop, ecosystem._market_sums)
                    == expected
                )

    @pytest.mark.parametrize("backend", available_backends())
    def test_zero_share_choices_are_never_drawn(self, backend):
        choices = get_backend(backend).market_choices(
            3, 0, 2000, ZERO_SHARE_ECOSYSTEM._market_sums
        )
        assert {row[0] for row in choices} == {1, 4}
        assert {row[1] for row in choices} == {0, 2}
        assert {row[2] for row in choices} == {0}

    @needs_numpy
    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_uniforms_equal_campaign_uniform(self, seed):
        from repro.backend.numpy_backend import _campaign_uniforms

        for first in (0, 1000, 2**40 + 3):
            assert _campaign_uniforms(seed, first, 64).tolist() == [
                campaign_uniform(seed, index) for index in range(first, first + 64)
            ]

    @pytest.mark.parametrize("backend", available_backends())
    def test_empty_range_and_validation(self, backend):
        kernel = get_backend(backend)
        markets = default_ecosystem()._market_sums
        assert kernel.market_choices(1, 9, 9, markets) == []
        with pytest.raises(BackendError, match="replica range"):
            kernel.market_choices(1, -1, 3, markets)
        with pytest.raises(BackendError, match="replica range"):
            kernel.market_choices(1, 5, 3, markets)
        with pytest.raises(BackendError, match="at least one market"):
            kernel.market_choices(1, 0, 3, ())
        with pytest.raises(BackendError, match="at least one choice"):
            kernel.market_choices(1, 0, 3, ((1.0, ()),))
        with pytest.raises(BackendError, match="share total"):
            kernel.market_choices(1, 0, 3, ((float("nan"), (1.0,)),))
        for running in ((0.5, 0.2), (-0.1, 1.0), (0.5, float("inf"))):
            with pytest.raises(BackendError, match="running share sums"):
                kernel.market_choices(1, 0, 3, ((1.0, running),))

    @needs_numpy
    def test_numpy_sample_population_never_calls_campaign_uniform(self, monkeypatch):
        calls = []

        def spy(seed, index):
            calls.append(index)
            return campaign_uniform(seed, index)

        for module in (backend_base, python_backend):
            monkeypatch.setattr(module, "campaign_uniform", spy)
        ecosystem = default_ecosystem()
        with use_backend("numpy"):
            drawn = ecosystem.sample_population(200, seed=3)
        assert calls == []
        # The spy sees the scalar reference: the python kernel draws one
        # uniform per replica and market.
        with use_backend("python"):
            reference = ecosystem.sample_population(200, seed=3)
        assert len(calls) == 200 * len(ecosystem.markets)
        assert [replica.configuration for replica in drawn] == [
            replica.configuration for replica in reference
        ]

    def test_one_kernel_call_per_chunk(self, monkeypatch):
        monkeypatch.setattr(software_ecosystem, "DEFAULT_REPLICA_CHUNK_SIZE", 7)
        kernel = get_backend()
        ranges = []
        original = type(kernel).market_choices

        def counting(self, seed, start, stop, markets):
            ranges.append((start, stop))
            return original(self, seed, start, stop, markets)

        monkeypatch.setattr(type(kernel), "market_choices", counting)
        population = default_ecosystem().sample_population(20, seed=4)
        assert ranges == [(0, 7), (7, 14), (14, 20)]
        assert [replica.configuration for replica in population] == [
            default_ecosystem().configuration_at(4, index) for index in range(20)
        ]

    @pytest.mark.parametrize("backend", available_backends())
    def test_sampled_populations_are_identical_across_backends(self, backend):
        ecosystem = default_ecosystem()
        powers = [1.0 + index % 3 for index in range(90)]
        with use_backend("python"):
            reference = ecosystem.sample_population(
                90, seed=2**64 - 1, power=powers, attested_fraction=0.4
            )
        with use_backend(backend):
            sampled = ecosystem.sample_population(
                90, seed=2**64 - 1, power=powers, attested_fraction=0.4
            )
        assert sampled.replicas() == reference.replicas()


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
