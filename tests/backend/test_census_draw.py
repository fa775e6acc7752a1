"""The NumPy census kernel's integer draw equals the float uniform.

``NumpyBackend.violation_trials`` never forms a uniform: it compares the raw
splitmix64 hash of counter ``t * n + i`` with the integer bound
``_column_limits`` derives from ``p``, where the census contract reads
``campaign_uniform(seed, t * n + i) < p``.  The reference below draws every
cell through the scalar ``campaign_uniform`` and keeps each trial's
compromised share, so the kernel's per-trial sums must match as well as its
aggregated result: counts and an ``fsum`` total would still match if a sum
landed on the wrong trial.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.backend import NumpyBackend, numpy_backend
from repro.backend.base import (
    _MASK64,
    _SPLITMIX_GAMMA,
    _SPLITMIX_MIX1,
    _SPLITMIX_MIX2,
    TrialBatchResult,
    campaign_uniform,
)

np = pytest.importorskip("numpy")

#: Round, non-dyadic and degenerate probabilities every seed is checked at.
PROBABILITIES = (0.0, 1.0, 0.25, 0.5, 0.3, 1 / 3, 0.1)

#: ``k * 2^-53`` and its float neighbours: a uniform is ``k * 2^-53`` for an
#: integer ``k``, so the ceiling in the bound decides whether a draw on the
#: grid point itself counts.  Then values off the grid.
GRID_PROBABILITIES = tuple(
    value
    for k in (1, 2, 3, 5, 1 << 26, 3 << 50, 1 << 52, (1 << 53) - 1)
    for value in (
        k * 2.0**-53,
        math.nextafter(k * 2.0**-53, 0.0),
        math.nextafter(k * 2.0**-53, 1.0),
    )
) + (5e-324, 2.0**-60, 2.5 * 2.0**-53, ((1 << 26) + 0.5) * 2.0**-53, 0.1, 0.3, 1 / 3, 0.7)


def raw_hash(seed, index):
    """``campaign_uniform``'s 64-bit hash before the shift: what the kernel compares."""
    z = ((seed & _MASK64) + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MIX2) & _MASK64
    return z ^ (z >> 31)


def hash_uniform(z):
    return (z >> 11) * 2.0**-53


def reference(shares, *, vulnerability_probability, exploit_budget, trials, seed, tolerances):
    """Per-trial compromised shares and the result, every cell drawn."""
    n = len(shares)
    sums = []
    for trial in range(trials):
        vulnerable = [
            share
            for index, share in enumerate(shares)
            if campaign_uniform(seed, trial * n + index) < vulnerability_probability
        ]
        compromised = 0.0
        for share in vulnerable[:exploit_budget]:
            compromised += share
        sums.append(compromised)
    return sums, TrialBatchResult(
        trials=trials,
        violations=tuple(sum(value >= tolerance for value in sums) for tolerance in tolerances),
        compromised_total=math.fsum(sums),
    )


def _shares(count, seed):
    """``count`` descending non-dyadic shares summing to about 1."""
    rng = random.Random(seed)
    weights = [rng.uniform(0.1, 3.0) for _ in range(count)]
    total = sum(weights)
    return sorted((weight / total for weight in weights), reverse=True)


def _check(shares, **kwargs):
    """The kernel's result, and its per-trial sums, equal the reference's."""
    expected_sums, expected = reference(shares, **kwargs)
    assert NumpyBackend().violation_trials(shares, **kwargs) == expected
    probability = kwargs["vulnerability_probability"]
    budget = kwargs["exploit_budget"]
    if probability > 0.0 and budget > 0:
        sums = numpy_backend._census_sums(
            np.asarray(shares, dtype=np.float64),
            probability,
            budget,
            kwargs["trials"],
            kwargs["seed"],
        )
        assert sums.tolist() == expected_sums
    return expected_sums


class TestIntegerDrawEqualsTheUniform:
    @pytest.mark.parametrize("seed", range(-25, 26))
    def test_every_seed_probability_and_budget(self, seed):
        # 37 trials x 13 configurations: trial rows start off any power of two.
        shares = _shares(13, seed)
        for probability in PROBABILITIES:
            for budget in (0, 1, 3, 13, 20):
                _check(
                    shares,
                    vulnerability_probability=probability,
                    exploit_budget=budget,
                    trials=37,
                    seed=seed,
                    tolerances=(0.2, 1 / 3, 0.5),
                )

    @pytest.mark.parametrize("probability", GRID_PROBABILITIES)
    def test_probabilities_next_to_the_grid(self, probability):
        # The bound is the last hash whose uniform is below p: the next hash
        # up is not.
        (limit,) = numpy_backend._column_limits((probability,))
        assert hash_uniform(limit) < probability
        if limit < _MASK64:
            assert not hash_uniform(limit + 1) < probability
        shares = _shares(64, 7)
        for seed in (0, 1):
            _check(
                shares,
                vulnerability_probability=probability,
                exploit_budget=64,
                trials=64,
                seed=seed,
                tolerances=(1e-9, 0.5),
            )

    @pytest.mark.parametrize("budget", [1, 2, 11, 40])
    @pytest.mark.parametrize("block_cells", [1, 3, 5])
    def test_block_sizes_are_invisible(self, monkeypatch, budget, block_cells):
        # Blocks of a few cells: a trial's picks span many blocks, and the
        # active trials shrink between them.
        monkeypatch.setattr(numpy_backend, "_CENSUS_BLOCK_CELLS", block_cells)
        shares = _shares(41, budget)
        for seed in (0, 3, 2**63 + 5, -7):
            _check(
                shares,
                vulnerability_probability=0.37,
                exploit_budget=budget,
                trials=29,
                seed=seed,
                tolerances=(1 / 3, 0.5),
            )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("low_bits", [0x000, 0x7FF])
    def test_draws_on_the_bound_itself(self, seed, low_bits):
        # Pick p from a hash the kernel will read: a hash whose low 11 bits
        # are all set is the bound of ((z >> 11) + 1) * 2^-53 and is below
        # it; one whose low 11 bits are clear is one past the bound of
        # (z >> 11) * 2^-53, its own uniform, and is not below it.
        shares, trials = _shares(16, seed), 1024
        x = next(
            z
            for z in (raw_hash(seed, counter) for counter in range(16 * trials))
            if z & 0x7FF == low_bits and z >> 11
        )
        probability = ((x >> 11) + (low_bits == 0x7FF)) * 2.0**-53
        (limit,) = numpy_backend._column_limits((probability,))
        assert limit == (x if low_bits == 0x7FF else x - 1)
        _check(
            shares,
            vulnerability_probability=probability,
            exploit_budget=16,
            trials=trials,
            seed=seed,
            tolerances=(1e-9,),
        )

    def test_single_configuration_single_trial(self):
        _check(
            [1.0],
            vulnerability_probability=0.5,
            exploit_budget=1,
            trials=1,
            seed=12,
            tolerances=(0.5,),
        )

    def test_the_compared_hash_is_the_uniforms_source(self):
        # What the kernel relies on: the wrapping uint64 finalizer over the
        # Weyl sequence is the scalar hash, and its top 53 bits scaled by
        # 2^-53 are campaign_uniform.
        for seed in (0, -1, 2**64 + 5):
            counters = range(64)
            hashes = [raw_hash(seed, counter) for counter in counters]
            z = np.arange(1, 65, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA)
            z += np.uint64(seed & _MASK64)
            assert numpy_backend._mix64(z).tolist() == hashes
            assert [hash_uniform(h) for h in hashes] == [
                campaign_uniform(seed, counter) for counter in counters
            ]

    @pytest.mark.parametrize(
        "probability, limit",
        [
            (0.0, -1),
            (5e-324, (1 << 11) - 1),  # only a hash whose uniform is 0 is below it
            (2.0**-60, (1 << 11) - 1),
            (2.0**-53, (1 << 11) - 1),
            (2.0**-53 + 2.0**-80, (2 << 11) - 1),
            (0.5, (1 << 63) - 1),
            (1.0, (1 << 64) - 1),
        ],
    )
    def test_census_limit(self, probability, limit):
        assert numpy_backend._column_limits((probability,)) == [limit]
