"""Vectorized NumPy compute backend.

Three families of kernel live here:

- ``violation_trials`` (census mode) hashes trial ``t``'s configuration
  ``i`` at counter ``t * n + i`` with the same vectorized splitmix64 and
  compares the hash as an integer with :func:`_column_limits`' bound, so a
  configuration is vulnerable exactly when
  :func:`repro.backend.base.campaign_uniform` is below ``p``.  Column
  blocks grow until every trial has its ``exploit_budget`` picks or runs out
  of configurations, and each trial's picks are added left to right
  (``cumsum`` along the configuration axis, a gather for budget 1), so every
  result is bit-identical to the pure-Python backend.
- ``market_choices`` samples a replica range's market choices: one
  vectorized splitmix64 over the counters ``index * M + m`` forms each
  ``u`` exactly as :func:`repro.backend.base.campaign_uniform` does, and a
  ``searchsorted(..., side="right")`` per market over its running share
  sums, clamped to the last choice, picks the index the scalar
  :func:`~repro.backend.base.market_choice` bisection picks — bit-identical
  to the pure-Python backend.
- The campaign kernel, ``sparse_grid_partials`` over CSR, reads the shared
  counter-based splitmix64 stream
  (:func:`repro.backend.base.campaign_uniform`), so every draw and every
  verdict matches the pure-Python backend.  It runs on one blocked
  flat-cell core, :func:`_campaign_core`, which adds replica powers in a
  different order than the scalar loop: the power sums are bit-identical
  when they are exact (unit or dyadic powers, as in every golden) and
  otherwise agree to a few ulps.  Its per-trial sums stay arrays until
  ``campaign_verdicts`` judges every point in one broadcast compare.

The exposure reduction, ``sparse_masked_power_sums``, is one ``bincount``
that adds in ascending row order, bit-identical to the scalar loop.

NumPy is an optional dependency (``pip install repro[fast]``); this module
imports it lazily so merely importing :mod:`repro.backend` never requires it.
"""

from __future__ import annotations

import array as _stdlib_array
import math
from typing import List, Optional, Sequence, Tuple

from repro.backend.base import (
    CAMPAIGN_FRACTION_SLACK,
    ComputeBackend,
    GridPointResult,
    MarketCumulative,
    ResolvedGridPoint,
    SparseExposure,
    SparseGridPartial,
    TrialBatchResult,
    _INV_2_53,
    _MASK64,
    _SPLITMIX_GAMMA,
    _SPLITMIX_MIX1,
    _SPLITMIX_MIX2,
    validate_market_choice_arguments,
    validate_sparse_partial_arguments,
    validate_trial_arguments,
    validate_verdict_arguments,
)
from repro.core.exceptions import BackendError

try:  # pragma: no cover - exercised indirectly via is_available()
    import numpy as _np
except ImportError as _numpy_import_error:  # pragma: no cover - env-dependent
    _np = None
    _NUMPY_IMPORT_ERROR: Optional[str] = str(_numpy_import_error)
else:  # pragma: no cover - the numpy-equipped environment
    _NUMPY_IMPORT_ERROR = None

#: Upper bound on the cells (active trials × configurations) one census block
#: hashes: 2^18 cells keep each of its uint64 work arrays at 2 MiB.
_CENSUS_BLOCK_CELLS = 1 << 18

#: Cells hashed per block by the campaign core.  A block streams through two
#: uint64 work buffers (16 bytes a cell: 1 MiB at 2^16 cells) plus a bool
#: success buffer, the per-cell stride/base/limit rows and the segment
#: weights, so the eleven elementwise passes a block makes stay inside a
#: 2 MiB per-core L2 instead of streaming from memory.  On the grid_sweep
#: benchmark's kernel call (10,005 cells a trial; 2-vCPU Xeon, 2 MiB L2 per
#: core) the median of 30 interleaved calls was 49 ms at 2^15 cells, 41 ms
#: at 2^16 and 44 ms at 2^17.
_BLOCK_CELLS = 1 << 16

#: Trials per block are capped so a block's per-cell success counts fit uint8.
_MAX_BLOCK_TRIALS = 255


def _buffer_array(values: Sequence, dtype) -> "_np.ndarray":
    """A NumPy view/copy of a sequence, zero-copy for stdlib ``array`` buffers.

    ``np.asarray`` walks stdlib arrays element by element (they expose no
    ``__array_interface__``); ``frombuffer`` reads the million-entry CSR
    index buffers without a Python-level loop.
    """
    if isinstance(values, _stdlib_array.array):
        viewed = _np.frombuffer(values, dtype=_np.dtype(values.typecode))
        return viewed.astype(dtype, copy=False)
    return _np.asarray(values, dtype=dtype)


def _campaign_uniforms(seed: int, first: int, count: int) -> "_np.ndarray":
    """``campaign_uniform(seed, n)`` for ``n`` in ``[first, first + count)``.

    ``z = seed + (n + 1) * gamma`` is ``n * gamma + (seed + gamma)`` modulo
    2^64, the splitmix64 finalizer runs on wrapping ``uint64`` arrays, and
    ``(z >> 11) * 2^-53`` is exact in float64 (the shifted hash has 53 bits),
    so every uniform equals the scalar reference bit for bit.
    """
    z = _np.arange(first, first + count, dtype=_np.uint64)
    z *= _np.uint64(_SPLITMIX_GAMMA)
    z += _np.uint64((seed + _SPLITMIX_GAMMA) & _MASK64)
    return (_mix64(z) >> _np.uint64(11)).astype(_np.float64) * _INV_2_53


def _mix64(z: "_np.ndarray") -> "_np.ndarray":
    """The splitmix64 finalizer, in place on a wrapping ``uint64`` array."""
    z ^= z >> _np.uint64(30)
    z *= _np.uint64(_SPLITMIX_MIX1)
    z ^= z >> _np.uint64(27)
    z *= _np.uint64(_SPLITMIX_MIX2)
    z ^= z >> _np.uint64(31)
    return z


def _choice_indices(
    u: "_np.ndarray", total: float, running: Sequence[float]
) -> "_np.ndarray":
    """:func:`~repro.backend.base.market_choice` over an array of quantiles.

    ``searchsorted(side="right")`` over the non-decreasing running sums is
    ``bisect_right``, so ties at ``u * total == running[i]`` and zero-share
    entries resolve as the scalar bisection does; the clamp keeps a target
    past the last sum on the last choice.
    """
    sums = _np.asarray(running, dtype=_np.float64)
    return _np.minimum(_np.searchsorted(sums, u * total, side="right"), sums.size - 1)


def _column_limits(probabilities: Sequence[float]) -> List[int]:
    """Inclusive bounds on the raw 64-bit splitmix64 output, one per column.

    The reference draw is ``u = z >> 11`` scaled by 2^-53, and
    ``u * 2^-53 < p`` iff ``u < ceil(p * 2^53)`` (the product is exact in
    float64, the ceiling turns the open real bound into a closed integer
    one) iff ``z <= (ceil(p * 2^53) << 11) - 1`` — so the core compares the
    hash itself and never shifts or converts it.  ``p = 0`` gives ``-1``:
    no cell of that column can succeed.
    """
    scaled = _np.ceil(_np.asarray(probabilities, dtype=_np.float64) * float(1 << 53))
    return [(int(bound) << 11) - 1 for bound in scaled]


def _campaign_core(
    powers: "_np.ndarray",
    points: Sequence[ResolvedGridPoint],
    cells: Sequence[Tuple["_np.ndarray", "_np.ndarray"]],
    *,
    trials: int,
    trial_offset: int,
    row_offset: int,
    total_rows: int,
) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """The campaign hash loop: ``(compromised, per_vulnerability)``.

    ``cells[p]`` lists point ``p``'s exposed *cells* as ``(rows, columns)``:
    replica rows local to ``powers`` (``row_offset`` makes them global) and
    positions in ``points[p].columns``, in row-major order.  A *segment* is
    one replica's cells at one point; the replica is compromised there when
    any cell of its segment succeeds, and cell ``(r, c)`` succeeds in trial
    ``t`` exactly when the reference draw
    ``campaign_uniform(seed_p, t*N*V_p + (row_offset + r)*V_p + c)`` (with
    ``N = total_rows`` and ``V_p = len(points[p].columns)``) is below the
    column's probability.

    ``compromised[i, p]`` is the power compromised at point ``p`` in trial
    ``trial_offset + i``; ``per_vulnerability`` sums each column's
    compromised power over the trials (point ``p``'s columns follow the
    columns of the points before it).

    Work runs in blocks of about :data:`_BLOCK_CELLS` cells, so no work
    buffer grows with the trial or replica count: the cells are cut into
    segment-aligned slices of at most a block (a longer segment is a slice
    of its own), each built when it is reached and run over every trial,
    as many whole trials per block as fit.  Powers are added in slice and
    segment-length order, not the scalar loop's row order, so the sums
    match the reference bit for bit only when they are exact (unit or
    dyadic powers) and otherwise to within float64 rounding.
    """
    widths = [len(point.columns) for point in points]
    slot_base = _np.cumsum([0] + widths[:-1])
    limits = [limit for point in points for limit in _column_limits(point.probabilities)]
    slot_limit = _np.array([max(limit, 0) for limit in limits], dtype=_np.uint64)
    owner = _np.repeat(
        _np.arange(len(points), dtype=_np.int32), [part[0].size for part in cells]
    )
    rows, columns = (
        _np.concatenate(parts) if len(parts) > 1 else parts[0]
        for parts in zip(*cells)
    )
    if min(limits) < 0:
        # Cells of p = 0 columns can never succeed: drop them up front.
        live = _np.array([limit >= 0 for limit in limits], dtype=_np.bool_)
        keep = live[slot_base[owner] + columns]
        owner, rows, columns = owner[keep], rows[keep], columns[keep]
    starts = _np.ones(rows.size, dtype=_np.bool_)
    starts[1:] = (rows[1:] != rows[:-1]) | (owner[1:] != owner[:-1])
    bounds = _np.append(_np.flatnonzero(starts), rows.size)
    # z = seed + (counter + 1) * gamma with counter = t*N*V + offset is
    # t * stride + base modulo 2^64, the per-point factors precomputed as
    # Python ints (exact, and free of NumPy's scalar overflow warning).
    stride_of = _np.array(
        [(total_rows * width * _SPLITMIX_GAMMA) & _MASK64 for width in widths],
        dtype=_np.uint64,
    )
    seed_of = _np.array(
        [(point.seed + _SPLITMIX_GAMMA) & _MASK64 for point in points],
        dtype=_np.uint64,
    )
    width_of = _np.array(widths, dtype=_np.uint64)
    compromised = _np.zeros((trials, len(points)), dtype=_np.float64)
    per_vulnerability = _np.zeros(sum(widths), dtype=_np.float64)
    first, segment_total = 0, bounds.size - 1
    while first < segment_total:
        last = int(
            _np.searchsorted(bounds, bounds[first] + _BLOCK_CELLS, side="right")
        ) - 1
        last = max(first + 1, last)
        lengths = _np.diff(bounds[first : last + 1])
        # Equal-length segments sit together, position j of each one in a
        # contiguous run, so "any cell succeeded" is one OR-reduce over k
        # views per length (the stable sort keeps point-then-row order).
        order = _np.argsort(lengths, kind="stable")
        seg_first = bounds[first + order]
        values, group_starts, group_sizes = _np.unique(
            lengths[order], return_index=True, return_counts=True
        )
        groups, pieces, cell_at = [], [], 0
        for length, segment_at, count in zip(
            values.tolist(), group_starts.tolist(), group_sizes.tolist()
        ):
            pieces.append(
                (
                    seg_first[segment_at : segment_at + count][None, :]
                    + _np.arange(length)[:, None]
                ).ravel()
            )
            groups.append((length, count, cell_at, segment_at))
            cell_at += length * count
        perm = _np.concatenate(pieces)
        cell_owner, cell_rows, cell_columns = owner[perm], rows[perm], columns[perm]
        cell_slots = slot_base[cell_owner] + cell_columns
        offsets = (cell_rows + row_offset).astype(_np.uint64) * width_of[
            cell_owner
        ] + cell_columns.astype(_np.uint64)
        stride = stride_of[cell_owner]
        base = offsets * _np.uint64(_SPLITMIX_GAMMA) + seed_of[cell_owner]
        limit = slot_limit[cell_slots]
        # Segment -> point weights: one matmul turns a block's per-segment
        # hits into every point's compromised power.
        weights = _np.zeros((order.size, len(points)), dtype=_np.float64)
        weights[_np.arange(order.size), owner[seg_first]] = powers[rows[seg_first]]
        cell_count, segment_count = perm.size, order.size
        per_block = max(1, min(_MAX_BLOCK_TRIALS, _BLOCK_CELLS // cell_count))
        z_buffer = _np.empty(per_block * cell_count, dtype=_np.uint64)
        mix_buffer = _np.empty_like(z_buffer)
        success_buffer = _np.empty(z_buffer.size, dtype=_np.bool_)
        hit_buffer = _np.empty(per_block * segment_count, dtype=_np.bool_)
        counts = _np.zeros(cell_count, dtype=_np.int64)
        for lo in range(0, trials, per_block):
            hi = min(lo + per_block, trials)
            block = hi - lo
            z = z_buffer[: block * cell_count].reshape(block, cell_count)
            mixed = mix_buffer[: z.size].reshape(z.shape)
            success = success_buffer[: z.size].reshape(z.shape)
            trial_ids = _np.arange(
                trial_offset + lo, trial_offset + hi, dtype=_np.uint64
            )
            _np.multiply(trial_ids[:, None], stride, out=z)
            z += base
            _np.right_shift(z, _np.uint64(30), out=mixed)
            z ^= mixed
            z *= _np.uint64(_SPLITMIX_MIX1)
            _np.right_shift(z, _np.uint64(27), out=mixed)
            z ^= mixed
            z *= _np.uint64(_SPLITMIX_MIX2)
            _np.right_shift(z, _np.uint64(31), out=mixed)
            z ^= mixed
            _np.less_equal(z, limit, out=success)
            counts += success.view(_np.uint8).sum(axis=0, dtype=_np.uint8)
            hits = hit_buffer[: block * segment_count].reshape(block, segment_count)
            for length, count, cell_at, segment_at in groups:
                _np.logical_or.reduce(
                    success[:, cell_at : cell_at + length * count].reshape(
                        block, length, count
                    ),
                    axis=1,
                    out=hits[:, segment_at : segment_at + count],
                )
            compromised[lo:hi] += hits @ weights
        # Success counts are exact integers; powers apply once per slice.
        per_vulnerability += _np.bincount(
            cell_slots,
            weights=counts * powers[cell_rows],
            minlength=per_vulnerability.size,
        )
        first = last
    return compromised, per_vulnerability


def _census_sums(
    shares: "_np.ndarray", probability: float, budget: int, trials: int, seed: int
) -> "_np.ndarray":
    """Each trial's compromised share under the census contract (``p > 0``).

    Trial ``t``'s configuration ``i`` is vulnerable when its hash at counter
    ``t * n + i`` is at most the :func:`_column_limits` bound of ``p``, and
    the trial takes its first ``budget`` vulnerable shares.  Only trials
    still short of ``budget`` picks hash the next column block; the first
    block spans twice the ``budget / p`` columns a trial needs on average
    and each later one doubles (capped at :data:`_CENSUS_BLOCK_CELLS`
    cells), so a budget-1 census at ``p = 0.25`` hashes about eight columns
    per trial however many configurations it has.  A trial's picks are added left to right
    onto its running sum, ``cumsum`` along the block, as the scalar loop
    adds them (adding an unpicked ``0.0`` leaves a sum unchanged).
    """
    n = shares.size
    sums = _np.zeros(trials, dtype=_np.float64)
    active = _np.arange(trials)
    picked = _np.zeros(trials, dtype=_np.int64)
    # z = seed + (t*n + i + 1) * gamma is row_base[t] + i * gamma mod 2^64.
    row_base = active.astype(_np.uint64) * _np.uint64((n * _SPLITMIX_GAMMA) & _MASK64)
    row_base += _np.uint64((seed + _SPLITMIX_GAMMA) & _MASK64)
    (limit,) = _column_limits((probability,))
    bound = _np.uint64(limit)
    reach = 2 * budget
    start, width = 0, n if reach >= n * probability else math.ceil(reach / probability)
    while active.size and start < n:
        width = max(1, min(width, n - start, _CENSUS_BLOCK_CELLS // active.size))
        column_step = _np.arange(start, start + width, dtype=_np.uint64)
        column_step *= _np.uint64(_SPLITMIX_GAMMA)
        vulnerable = _mix64(row_base[:, None] + column_step) <= bound
        block = shares[start : start + width]
        if budget == 1:
            first = vulnerable.argmax(axis=1)
            done = vulnerable[_np.arange(active.size), first]
            sums[active[done]] = block[first[done]]
        else:
            ranks = _np.cumsum(vulnerable, axis=1) + picked[:, None]
            values = _np.where(vulnerable & (ranks <= budget), block, 0.0)
            sums[active] = _np.cumsum(
                _np.column_stack((sums[active], values)), axis=1
            )[:, -1]
            picked = _np.minimum(ranks[:, -1], budget)
            done = picked == budget
        keep = ~done
        active, row_base, picked = active[keep], row_base[keep], picked[keep]
        start += width
        width *= 2
    return sums


class NumpyBackend(ComputeBackend):
    """Array-batched implementation of the compute kernels."""

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:
            raise BackendError(
                "the numpy backend requires NumPy; install it with "
                "'pip install repro[fast]' or select REPRO_BACKEND=python"
            )

    @classmethod
    def is_available(cls) -> bool:
        return _np is not None

    @classmethod
    def availability_error(cls) -> Optional[str]:
        if _np is not None:
            return None
        return (
            f"numpy is not importable ({_NUMPY_IMPORT_ERROR}); install it "
            "with 'pip install repro[fast]' or use REPRO_BACKEND=python"
        )

    def violation_trials(
        self,
        shares: Sequence[float],
        *,
        vulnerability_probability: float,
        exploit_budget: int,
        trials: int,
        seed: int,
        tolerances: Sequence[float],
    ) -> TrialBatchResult:
        validate_trial_arguments(
            shares,
            vulnerability_probability=vulnerability_probability,
            exploit_budget=exploit_budget,
            trials=trials,
            tolerances=tolerances,
        )
        if exploit_budget == 0 or vulnerability_probability == 0.0:
            # Nothing can be picked: every trial compromises 0.0, which no
            # tolerance (all > 0) reaches.
            return TrialBatchResult(
                trials=trials,
                violations=(0,) * len(tolerances),
                compromised_total=0.0,
            )
        sums = _census_sums(
            _np.asarray(shares, dtype=_np.float64),
            vulnerability_probability,
            exploit_budget,
            trials,
            seed,
        )
        return TrialBatchResult(
            trials=trials,
            violations=tuple(
                int(_np.count_nonzero(sums >= tolerance)) for tolerance in tolerances
            ),
            compromised_total=math.fsum(sums.tolist()),
        )

    def market_choices(
        self,
        seed: int,
        start: int,
        stop: int,
        markets: Sequence[MarketCumulative],
    ) -> List[Tuple[int, ...]]:
        validate_market_choice_arguments(start, stop, markets)
        market_count = len(markets)
        uniforms = _campaign_uniforms(
            seed, start * market_count, (stop - start) * market_count
        ).reshape(stop - start, market_count)
        choices = _np.empty(uniforms.shape, dtype=_np.int64)
        for position, (total, running) in enumerate(markets):
            choices[:, position] = _choice_indices(
                uniforms[:, position], total, running
            )
        return list(map(tuple, choices.tolist()))

    def sparse_masked_power_sums(
        self, sparse: SparseExposure
    ) -> Tuple[float, ...]:
        sparse.validate()
        indptr = _buffer_array(sparse.indptr, _np.int64)
        indices = _buffer_array(sparse.indices, _np.int64)
        powers = _buffer_array(sparse.powers, _np.float64)
        weights = _np.repeat(powers, _np.diff(indptr))
        sums = _np.bincount(
            indices, weights=weights, minlength=sparse.column_count
        )
        return tuple(float(value) for value in sums)

    def sparse_grid_partials(
        self,
        sparse: SparseExposure,
        points: Sequence[ResolvedGridPoint],
        *,
        trials: int,
        trial_offset: int = 0,
        row_offset: int = 0,
        total_rows: Optional[int] = None,
    ) -> Tuple[SparseGridPartial, ...]:
        total = validate_sparse_partial_arguments(
            sparse,
            points,
            trials=trials,
            trial_offset=trial_offset,
            row_offset=row_offset,
            total_rows=total_rows,
        )
        indptr = _buffer_array(sparse.indptr, _np.int64)
        all_columns = _buffer_array(sparse.indices, _np.int64)
        # CSR nonzeros are already row-major — the core's cell order — so
        # each point's cells come from a column lookup over the shared
        # (row, column) vectors.
        all_rows = _np.repeat(
            _np.arange(sparse.replica_count, dtype=_np.int64), _np.diff(indptr)
        )
        cells = []
        for point in points:
            lut = _np.full(sparse.column_count, -1, dtype=_np.int64)
            lut[list(point.columns)] = _np.arange(len(point.columns))
            local = lut[all_columns]
            keep = local >= 0
            cells.append(
                (all_rows, local) if keep.all() else (all_rows[keep], local[keep])
            )
        compromised, per_vulnerability = _campaign_core(
            _buffer_array(sparse.powers, _np.float64),
            points,
            cells,
            trials=trials,
            trial_offset=trial_offset,
            row_offset=row_offset,
            total_rows=total,
        )
        slot_at = _np.cumsum([0] + [len(point.columns) for point in points])
        return tuple(
            SparseGridPartial(
                per_trial_compromised=compromised[:, index],
                per_vulnerability_totals=per_vulnerability[
                    slot_at[index] : slot_at[index + 1]
                ],
            )
            for index in range(len(points))
        )

    def campaign_verdicts(
        self,
        partials: Sequence[SparseGridPartial],
        points: Sequence[ResolvedGridPoint],
        *,
        trials: int,
        total_power: float,
    ) -> Tuple[GridPointResult, ...]:
        validate_verdict_arguments(
            partials, points, trials=trials, total_power=total_power
        )
        # C order, trials down the rows: the axis-0 sum below adds each
        # point's per-trial sums in trial order, as the scalar loop does.
        compromised = _np.column_stack(
            [partial.per_trial_compromised for partial in partials]
        )
        verdicts = [len(point.tolerances) for point in points]
        thresholds = _np.array(
            [
                tolerance - CAMPAIGN_FRACTION_SLACK
                for point in points
                for tolerance in point.tolerances
            ],
            dtype=_np.float64,
        )
        # One broadcast compare takes every point's verdicts at once.
        violations = _np.count_nonzero(
            compromised[:, _np.repeat(_np.arange(len(points)), verdicts)]
            / total_power
            >= thresholds,
            axis=0,
        )
        compromised_totals = compromised.sum(axis=0)
        verdict_at = _np.cumsum([0] + verdicts)
        return tuple(
            GridPointResult(
                trials=trials,
                columns=point.columns,
                violations=tuple(
                    violations[verdict_at[index] : verdict_at[index + 1]].tolist()
                ),
                compromised_total=float(compromised_totals[index]),
                per_vulnerability_totals=tuple(
                    _np.asarray(partial.per_vulnerability_totals).tolist()
                ),
            )
            for index, (point, partial) in enumerate(zip(points, partials))
        )

    def asarray(self, values: Sequence[float]) -> "_np.ndarray":
        array = _np.asarray(values, dtype=_np.float64)
        if array.flags.writeable:
            # Cached by ConfigurationDistribution and handed to many callers;
            # freeze so nobody can poison the shared copy in place.
            array.setflags(write=False)
        return array
