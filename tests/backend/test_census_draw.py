"""The NumPy census kernel's integer draw equals its float32 reference.

``NumpyBackend.violation_trials`` compares PCG64's raw 32-bit halves with an
integer bound instead of forming float32 uniforms.  The reference below is
the float32 kernel verbatim: ``Generator.random(dtype=float32) < p`` per
chunk, the same masked top-k reductions and the same per-chunk
accumulation, so every field of the result must match exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import NumpyBackend, numpy_backend
from repro.backend.base import TrialBatchResult

np = pytest.importorskip("numpy")

#: Round, non-dyadic and degenerate probabilities every seed is checked at.
PROBABILITIES = (0.0, 1.0, 0.25, 0.5, 0.3, 1 / 3, 0.1)

#: ``k * 2^-24`` and values just around it: the float32 rounding of ``p``
#: decides which grid draws count as below it.
GRID_PROBABILITIES = tuple(
    value
    for k in (1, 2, 3, 5_592_405, 1 << 23, (1 << 24) - 1)
    for value in (
        k * 2.0**-24,
        float(np.nextafter(k * 2.0**-24, 0.0)),
        float(np.nextafter(k * 2.0**-24, 1.0)),
        k * 2.0**-24 + 2.0**-50,
        k * 2.0**-24 - 2.0**-50,
    )
    if 0.0 <= value <= 1.0
) + (2.0**-60, float(np.nextafter(1.0, 0.0)))


def float32_reference(
    shares,
    *,
    vulnerability_probability,
    exploit_budget,
    trials,
    seed,
    tolerances,
    chunk_cells,
):
    """The float32 census kernel, as the NumPy backend ran it before."""
    share_row = np.asarray(shares, dtype=np.float64)
    n_configs = share_row.size
    rng = np.random.default_rng(seed)
    if exploit_budget == 0:
        return TrialBatchResult(
            trials=trials, violations=(0,) * len(tolerances), compromised_total=0.0
        )
    tolerance_row = np.asarray(tolerances, dtype=np.float64)
    violations = np.zeros(tolerance_row.size, dtype=np.int64)
    compromised_total = 0.0
    chunk_rows = max(1, chunk_cells // max(1, n_configs))
    remaining = trials
    take_all = exploit_budget >= n_configs
    row_index = np.arange(min(chunk_rows, trials))
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        remaining -= rows
        vulnerable = (
            rng.random((rows, n_configs), dtype=np.float32) < vulnerability_probability
        )
        if take_all:
            compromised = vulnerable @ share_row
        elif exploit_budget == 1:
            first = vulnerable.argmax(axis=1)
            compromised = share_row[first] * vulnerable[row_index[:rows], first]
        else:
            ranks = np.cumsum(vulnerable, axis=1, dtype=np.int16)
            picked = vulnerable & (ranks <= exploit_budget)
            compromised = picked @ share_row
        violations += np.count_nonzero(compromised[:, None] >= tolerance_row, axis=0)
        compromised_total += float(compromised.sum())
    return TrialBatchResult(
        trials=trials,
        violations=tuple(violations.tolist()),
        compromised_total=compromised_total,
    )


def _shares(count, seed):
    """``count`` descending non-dyadic shares summing to about 1."""
    rng = random.Random(seed)
    weights = [rng.uniform(0.1, 3.0) for _ in range(count)]
    total = sum(weights)
    return sorted((weight / total for weight in weights), reverse=True)


def _both(shares, monkeypatch=None, chunk_cells=None, **kwargs):
    if chunk_cells is not None:
        monkeypatch.setattr(numpy_backend, "_CHUNK_CELLS", chunk_cells)
    reference = float32_reference(
        shares, chunk_cells=numpy_backend._CHUNK_CELLS, **kwargs
    )
    return NumpyBackend().violation_trials(shares, **kwargs), reference


class TestIntegerDrawEqualsFloat32:
    @pytest.mark.parametrize("seed", range(51))
    def test_every_seed_probability_and_budget(self, seed):
        # 37 trials x 13 configurations: an odd cell count in one chunk.
        shares = _shares(13, seed)
        for probability in PROBABILITIES:
            for budget in (0, 1, 3, 13, 20):
                kernel, reference = _both(
                    shares,
                    vulnerability_probability=probability,
                    exploit_budget=budget,
                    trials=37,
                    seed=seed,
                    tolerances=(0.2, 1 / 3, 0.5),
                )
                assert kernel == reference, (probability, budget)

    @pytest.mark.parametrize("probability", GRID_PROBABILITIES)
    def test_probabilities_next_to_the_float32_grid(self, probability):
        # Enough draws that grid values near k * 2^-24 actually occur for
        # the small k: 2^18 cells a seed.
        shares = _shares(64, 7)
        for seed in (0, 1):
            kernel, reference = _both(
                shares,
                vulnerability_probability=probability,
                exploit_budget=64,
                trials=4096,
                seed=seed,
                tolerances=(1e-9, 0.5),
            )
            assert kernel == reference

    @pytest.mark.parametrize("budget", [1, 2, 11, 40])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 5])
    def test_odd_cell_chunks_carry_the_spare_half(self, monkeypatch, budget, chunk_rows):
        # 11 configurations and an odd number of rows per chunk: every
        # other chunk starts on the previous chunk's unused high half.
        shares = _shares(11, budget)
        for seed in (0, 3, 2**63 + 5):
            kernel, reference = _both(
                shares,
                monkeypatch,
                chunk_cells=chunk_rows * 11,
                vulnerability_probability=0.37,
                exploit_budget=budget,
                trials=29,
                seed=seed,
                tolerances=(1 / 3, 0.5),
            )
            assert kernel == reference

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("low_byte", [0x00, 0xFF])
    def test_draws_on_the_bound_itself(self, seed, low_byte):
        # Pick p from a draw the kernel will read: a half with low byte
        # 0xFF is the last one below ((x >> 8) + 1) * 2^-24, and a half with
        # low byte 0x00 is the first one not below (x >> 8) * 2^-24.
        shares = _shares(16, seed)
        words = np.random.default_rng(seed).bit_generator.random_raw(16 * 256 // 2)
        halves = [int(word) >> shift & 0xFFFFFFFF for word in words for shift in (0, 32)]
        x = next(half for half in halves if half & 0xFF == low_byte and half >> 8)
        probability = ((x >> 8) + (low_byte == 0xFF)) * 2.0**-24
        kernel, reference = _both(
            shares,
            vulnerability_probability=probability,
            exploit_budget=16,
            trials=256,
            seed=seed,
            tolerances=(1e-9,),
        )
        assert kernel == reference

    def test_single_configuration_single_trial(self):
        kernel, reference = _both(
            [1.0],
            vulnerability_probability=0.5,
            exploit_budget=1,
            trials=1,
            seed=12,
            tolerances=(0.5,),
        )
        assert kernel == reference

    def test_halves_are_read_low_first(self):
        # The ordering the kernel relies on: a float32 uniform is the next
        # 32-bit half, low half of each 64-bit word first.
        words = np.random.default_rng(5).bit_generator.random_raw(4)
        halves = [int(word) >> shift & 0xFFFFFFFF for word in words for shift in (0, 32)]
        uniforms = np.random.default_rng(5).random(8, dtype=np.float32)
        assert uniforms.tolist() == [(half >> 8) * 2.0**-24 for half in halves]

    @pytest.mark.parametrize(
        "probability, limit",
        [
            (0.0, -1),
            (1e-50, -1),  # 0 in float32: no draw is below it
            (2.0**-60, (1 << 8) - 1),  # a float32 draw of exactly 0 is below it
            (2.0**-24, (1 << 8) - 1),
            (2.0**-24 + 2.0**-40, (2 << 8) - 1),
            (0.5, (1 << 31) - 1),
            (1.0, (1 << 32) - 1),
        ],
    )
    def test_census_limit(self, probability, limit):
        assert numpy_backend._census_limit(probability) == limit
