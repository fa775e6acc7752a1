"""Edge tests for the NumPy campaign core's folded compare and blocking.

The NumPy campaign kernel compares the raw splitmix64 hash against an
inclusive integer limit (the ``>> 11`` draw shift folded into the bound)
and streams cells through fixed-size blocks.  Both must be invisible:

- probabilities at the edges of the compare (0, 2^-53, 1/2, 1 - 2^-53, 1)
  give results bit-identical to the scalar reference, including cells whose
  hash lands exactly on either side of the limit, and p = 0 never succeeds
  while p = 1 always does;
- the block size — one cell, a size that leaves ragged slices and trial
  tails, or one block for everything — never changes a result when the
  power sums are exact (dyadic powers), and neither does fanning trials
  out over shm workers;
- with powers whose sums round, the core adds in another order than the
  scalar loop: verdicts still match exactly and the sums agree to within
  rounding, at every block size.

Dense 0/1 workloads reach the kernel through :meth:`SparseExposure.from_dense`.
"""

from __future__ import annotations

import math

import pytest

np = pytest.importorskip("numpy")

from repro.backend import get_backend, numpy_backend, shm_backend
from repro.backend.base import (
    _MASK64,
    _SPLITMIX_GAMMA,
    _SPLITMIX_MIX1,
    _SPLITMIX_MIX2,
    ResolvedGridPoint,
    SparseExposure,
    campaign_uniform,
)
from repro.backend.shm_backend import WORKERS_ENV_VAR, ShmBackend

from campaign_helpers import plain, run_campaign

EDGE_PROBABILITIES = (0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0)
DYADIC_POWERS = (0.25, 0.5, 1.0, 2.0, 3.0)
REPLICAS = 40
COLUMNS = 300
TRIALS = 23
SEED = 29
TOLERANCES = (1.0 / 3.0, 0.5)
#: Two orders of summing at most TRIALS x REPLICAS positive float64 terms
#: each stay within n * eps of the exact sum, so they differ by <= 2 n eps.
SUM_RTOL = 2 * TRIALS * REPLICAS * float(np.finfo(np.float64).eps)


@pytest.fixture(scope="module")
def workload():
    """(exposure, powers, probabilities, total power): dyadic, some rows full."""
    rng = np.random.default_rng(5)
    exposure = (rng.random((REPLICAS, COLUMNS)) < 0.08).astype(float)
    exposure[[3, 17, 31]] = 1.0  # exposed to every column of a wide point
    powers = tuple(float(p) for p in rng.choice(DYADIC_POWERS, size=REPLICAS))
    probabilities = tuple(float(p) for p in rng.random(COLUMNS) * 0.6 + 0.2)
    return exposure, powers, probabilities, float(sum(powers))


@pytest.fixture(scope="module")
def inexact(workload):
    """The same workload with non-dyadic powers, whose sums round."""
    exposure, _, probabilities, _ = workload
    powers = tuple(float(p) for p in np.random.default_rng(6).random(REPLICAS) * 3 + 0.1)
    return exposure, powers, probabilities, float(sum(powers))


def seed_drawing(target: int) -> int:
    """A seed whose campaign stream hashes cell 0 to exactly ``target``.

    Inverts the splitmix64 finalizer (xor-shifts and odd multipliers are
    bijections on 64-bit words), then solves ``seed + gamma = z`` for the
    Weyl step of counter 0.
    """
    z = target
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(_SPLITMIX_MIX2, -1, 1 << 64)) & _MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(_SPLITMIX_MIX1, -1, 1 << 64)) & _MASK64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - _SPLITMIX_GAMMA) & _MASK64


def boundary_cases():
    """(probability, seed, succeeds) with cell 0 hashing onto each side of the limit."""
    cases = []
    for probability in EDGE_PROBABILITIES:
        limit = (math.ceil(probability * 2.0 ** 53) << 11) - 1
        if limit >= 0:
            cases.append((probability, seed_drawing(limit), True))
        if limit < _MASK64:
            cases.append((probability, seed_drawing(limit + 1), False))
    return cases


def grid_points(workload):
    """Top-k points, edge-probability points and one >= 256-column point."""
    exposure, powers, probabilities, _ = workload
    exposed = np.asarray(powers) @ exposure
    ranked = sorted(range(COLUMNS), key=lambda column: (-exposed[column], column))

    def point(columns, seed_offset, *, tolerances=TOLERANCES, override=None):
        return ResolvedGridPoint(
            columns=tuple(columns),
            probabilities=(
                tuple(override)
                if override is not None
                else tuple(probabilities[column] for column in columns)
            ),
            tolerances=tolerances,
            seed=SEED + seed_offset,
        )

    points = [
        point(ranked[:3], 0),
        point(ranked[:6], 1, tolerances=(0.25,)),
        point(range(COLUMNS - 1, -1, -1), 2),
        point((4, 9, 14, 19, 24), 3, override=EDGE_PROBABILITIES),
    ]
    points.extend(
        point((0, 1, 2, 7, 11), 10 + index, override=(probability,) * 5)
        for index, probability in enumerate(EDGE_PROBABILITIES)
    )
    return tuple(points)


def resolved_points():
    """Explicit-column points for the sparse partials primitive."""
    return tuple(
        ResolvedGridPoint(
            columns=columns,
            probabilities=probabilities,
            tolerances=TOLERANCES,
            seed=SEED + index,
        )
        for index, (columns, probabilities) in enumerate(
            [
                (tuple(range(COLUMNS)), tuple(0.5 for _ in range(COLUMNS))),
                ((4, 9, 14, 19, 24), EDGE_PROBABILITIES),
                ((2, 0, 5), (0.75, 1.0, 0.25)),
            ]
            + [((0, 1, 2, 7, 11), (p,) * 5) for p in EDGE_PROBABILITIES]
        )
    )


def run_grid(backend, workload):
    exposure, powers, probabilities, total_power = workload
    return run_campaign(
        backend,
        SparseExposure.from_dense(exposure, powers, probabilities),
        grid_points(workload),
        trials=TRIALS,
        total_power=total_power,
        trial_offset=11,
    )


def run_partials(backend, workload):
    """Full-range partials plus a mid-population row chunk, as plain lists."""
    exposure, powers, probabilities, _ = workload
    sparse = SparseExposure.from_dense(exposure, powers, probabilities)
    full = backend.sparse_grid_partials(
        sparse, resolved_points(), trials=TRIALS, trial_offset=7
    )
    chunk = backend.sparse_grid_partials(
        sparse.row_slice(10, 33),
        resolved_points(),
        trials=TRIALS,
        trial_offset=7,
        row_offset=10,
        total_rows=REPLICAS,
    )
    return plain(full), plain(chunk)


class TestFoldedCompare:
    @pytest.mark.parametrize("probability, seed, succeeds", boundary_cases())
    def test_hash_on_the_limit_matches_the_reference(self, probability, seed, succeeds):
        assert (campaign_uniform(seed, 0) < probability) is succeeds
        resolved = ResolvedGridPoint(
            columns=(0,), probabilities=(probability,), tolerances=(0.5,), seed=seed
        )
        sparse = SparseExposure.from_rows([(0,)], (2.0,), (0.5,))
        outcomes = []
        for name in ("numpy", "python"):
            backend = get_backend(name)
            grid = run_campaign(backend, sparse, (resolved,), trials=1, total_power=2.0)
            partials = backend.sparse_grid_partials(sparse, (resolved,), trials=1)
            outcomes.append((grid, plain(partials)))
        assert outcomes[0] == outcomes[1]
        (grid,), ((per_trial, _),) = outcomes[0]
        assert grid.violations == ((1,) if succeeds else (0,))
        assert per_trial == ([2.0] if succeeds else [0.0])

    def test_edge_probabilities_match_python_on_campaign_grid(self, workload):
        assert run_grid(get_backend("numpy"), workload) == run_grid(
            get_backend("python"), workload
        )

    def test_edge_probabilities_match_python_on_sparse_partials(self, workload):
        assert run_partials(get_backend("numpy"), workload) == run_partials(
            get_backend("python"), workload
        )

    def test_zero_never_succeeds_and_one_always_does(self, workload):
        exposure, powers, probabilities, total_power = workload
        backend = get_backend("numpy")
        columns = (0, 1, 2, 7, 11)
        never, always = run_campaign(
            backend,
            SparseExposure.from_dense(exposure, powers, probabilities),
            tuple(
                ResolvedGridPoint(
                    columns=columns,
                    probabilities=(probability,) * len(columns),
                    tolerances=(1e-6,),
                    seed=SEED + offset,
                )
                for offset, probability in enumerate((0.0, 1.0))
            ),
            trials=TRIALS,
            total_power=total_power,
        )
        assert never.violations == (0,)
        assert never.compromised_total == 0.0
        assert never.per_vulnerability_totals == (0.0,) * len(columns)
        exposed_rows = exposure[:, list(columns)].any(axis=1)
        assert always.violations == (TRIALS,)
        assert always.compromised_total == TRIALS * float(
            np.asarray(powers)[exposed_rows].sum()
        )
        assert always.per_vulnerability_totals == tuple(
            TRIALS * float(np.asarray(powers) @ exposure[:, column])
            for column in columns
        )


class TestBlockingIsInvisible:
    @pytest.fixture(scope="class")
    def reference(self, workload):
        return run_grid(get_backend("numpy"), workload), run_partials(
            get_backend("numpy"), workload
        )

    @pytest.mark.parametrize("block_cells", (1, 37, 10**9))
    def test_block_size_never_changes_results(
        self, monkeypatch, workload, reference, block_cells
    ):
        monkeypatch.setattr(numpy_backend, "_BLOCK_CELLS", block_cells)
        backend = get_backend("numpy")
        assert run_grid(backend, workload) == reference[0]
        assert run_partials(backend, workload) == reference[1]

    @pytest.mark.skipif(
        not ShmBackend.is_available(), reason="shm backend unavailable here"
    )
    def test_shm_two_workers_match_numpy(self, monkeypatch, workload, reference):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        monkeypatch.setattr(shm_backend, "INLINE_CELL_LIMIT", 0)
        backend = get_backend("shm")
        assert run_grid(backend, workload) == reference[0]
        assert run_partials(backend, workload) == reference[1]


class TestInexactPowerSums:
    @pytest.fixture(scope="class")
    def reference(self, inexact):
        backend = get_backend("python")
        return run_grid(backend, inexact), run_partials(backend, inexact)

    @pytest.mark.parametrize("block_cells", (1, 37, 10**9))
    def test_verdicts_match_and_sums_agree_to_rounding(
        self, monkeypatch, inexact, reference, block_cells
    ):
        monkeypatch.setattr(numpy_backend, "_BLOCK_CELLS", block_cells)
        backend = get_backend("numpy")
        grid, (full, chunk) = run_grid(backend, inexact), run_partials(backend, inexact)
        for point, expected in zip(grid, reference[0]):
            assert point.columns == expected.columns
            assert point.violations == expected.violations
            assert point.compromised_total == pytest.approx(
                expected.compromised_total, rel=SUM_RTOL
            )
            assert point.per_vulnerability_totals == pytest.approx(
                expected.per_vulnerability_totals, rel=SUM_RTOL
            )
        for (per_trial, per_column), (trial_ref, column_ref) in zip(
            full + chunk, reference[1][0] + reference[1][1]
        ):
            assert per_trial == pytest.approx(trial_ref, rel=SUM_RTOL)
            assert per_column == pytest.approx(column_ref, rel=SUM_RTOL)
