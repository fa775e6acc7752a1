"""Cross-backend contract tests for the dense ``campaign_grid`` kernel.

The grid kernel's contract has three load-bearing clauses this module pins:

- every grid point's sub-stream is **bit-identical** to a standalone
  one-point call on the column-sliced matrix with the point's seed, so the
  backends (and the fused/looped paths) agree exactly, not just closely;
- ``trial_offset`` makes chunk boundaries invisible — partitioned runs sum
  to the unchunked totals;
- grid inputs are validated at the seam on every backend, by the one point
  validator both campaign kernels (dense ``campaign_grid`` and CSR
  ``sparse_grid_partials``) share: empty grids, duplicate points,
  out-of-range or NaN parameters are usage errors
  (:class:`~repro.core.exceptions.BackendError`), never silent zeros.
"""

from __future__ import annotations

import math

import pytest

from repro.backend import NumpyBackend, available_backends, get_backend
from repro.backend.base import ResolvedGridPoint
from repro.core.exceptions import BackendError
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario

needs_numpy = pytest.mark.skipif(
    not NumpyBackend.is_available(), reason="numpy not installed"
)

TOLERANCES = (1.0 / 3.0, 0.5)


def grid_fixture(backend_name):
    """(backend, matrix, exposure, powers) for one scenario."""
    scenario = ecosystem_scenario(
        ecosystem="diverse", population_size=32, seed=9, exploit_probability=0.55
    )
    matrix = PopulationMatrix.build(scenario.population, scenario.catalog)
    backend = get_backend(backend_name)
    return (
        backend,
        matrix,
        backend.asarray_matrix(matrix.exposure_rows()),
        backend.asarray(matrix.powers),
    )


def point(columns, *, probability=None, tolerances=TOLERANCES, seed=3):
    """A resolved point over ``columns`` (matrix probabilities by default)."""
    _, matrix, _, _ = grid_fixture("python")
    probabilities = (
        (probability,) * len(columns)
        if probability is not None
        else tuple(matrix.success_probabilities[column] for column in columns)
    )
    return ResolvedGridPoint(
        columns=tuple(columns),
        probabilities=probabilities,
        tolerances=tuple(tolerances),
        seed=seed,
    )


def run_grid(backend_name, points, *, trials=60, trial_offset=0):
    backend, matrix, exposure, powers = grid_fixture(backend_name)
    return backend.campaign_grid(
        exposure,
        powers,
        points,
        trials=trials,
        total_power=matrix.total_power,
        trial_offset=trial_offset,
    )


def run_kernel(kernel, backend_name, points, *, trials=60, trial_offset=0):
    """Run ``points`` through the dense or the sparse campaign kernel."""
    if kernel == "dense":
        return run_grid(backend_name, points, trials=trials, trial_offset=trial_offset)
    backend, matrix, _, _ = grid_fixture(backend_name)
    return backend.sparse_grid_partials(
        matrix.sparse_exposure(), points, trials=trials, trial_offset=trial_offset
    )


KERNELS = ("dense", "sparse")


class TestGridPointSubStreams:
    """Per-point sub-streams equal standalone calls on the sliced matrix."""

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_explicit_column_points_match_sliced_campaigns(self, backend_name):
        backend, matrix, exposure, powers = grid_fixture(backend_name)
        points = (point((0, 2, 5), seed=7), point((1,), seed=11))
        results = backend.campaign_grid(
            exposure, powers, points, trials=80, total_power=matrix.total_power
        )
        for grid_point, result in zip(points, results):
            sliced = backend.asarray_matrix(
                tuple(
                    tuple(row[column] for column in grid_point.columns)
                    for row in matrix.exposure_rows()
                )
            )
            (reference,) = backend.campaign_grid(
                sliced,
                powers,
                (
                    ResolvedGridPoint(
                        columns=tuple(range(len(grid_point.columns))),
                        probabilities=grid_point.probabilities,
                        tolerances=grid_point.tolerances,
                        seed=grid_point.seed,
                    ),
                ),
                trials=80,
                total_power=matrix.total_power,
            )
            assert result.violations == reference.violations
            assert result.compromised_total == reference.compromised_total
            assert (
                result.per_vulnerability_totals
                == reference.per_vulnerability_totals
            )
            assert result.columns == grid_point.columns

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_degenerate_probabilities(self, backend_name):
        # p=0 exploits nothing; p=1 compromises every exposed replica,
        # deterministically, in every trial.
        _, matrix, _, _ = grid_fixture(backend_name)
        never, always = run_grid(
            backend_name,
            (point((0,), probability=0.0), point((0,), probability=1.0)),
            trials=20,
        )
        assert never.compromised_total == 0.0
        assert never.violations == (0, 0)
        exposed_power = matrix.exposed_power()[matrix.vulnerability_ids[0]]
        assert always.compromised_total == pytest.approx(20 * exposed_power)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_trial_offset_partitions_sum_to_the_whole(self, backend_name):
        points = (point((0, 1)), point((3, 4), seed=4))
        whole = run_grid(backend_name, points, trials=50)
        first = run_grid(backend_name, points, trials=30)
        second = run_grid(backend_name, points, trials=20, trial_offset=30)
        for merged, left, right in zip(whole, first, second):
            assert merged.violations == tuple(
                a + b for a, b in zip(left.violations, right.violations)
            )
            assert merged.compromised_total == (
                left.compromised_total + right.compromised_total
            )

    @needs_numpy
    def test_backends_are_bit_identical(self):
        points = (
            point((4, 0, 2, 1)),
            point((0, 1, 2), probability=0.7, tolerances=(0.25,), seed=4),
            point((5,), seed=12),
        )
        assert run_grid("python", points) == run_grid("numpy", points)


class TestGridValidation:
    """Both kernels validate points at the seam, identically on every backend."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_empty_grid_is_a_usage_error(self, kernel, backend_name):
        with pytest.raises(BackendError, match="at least one grid point"):
            run_kernel(kernel, backend_name, ())

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_duplicate_points_are_rejected(self, kernel, backend_name):
        with pytest.raises(BackendError, match="distinct"):
            run_kernel(kernel, backend_name, (point((0, 1)), point((0, 1))))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(tolerances=()), "tolerance"),
            (dict(tolerances=(0.0,)), "tolerance"),
            (dict(tolerances=(-0.25,)), "tolerance"),
            (dict(tolerances=(1.5,)), "tolerance"),
            (dict(tolerances=(float("nan"),)), "tolerance"),
            (dict(tolerances=(0.5, float("nan"))), "tolerance"),
            (dict(columns=(), probabilities=()), "no columns"),
            (dict(columns=(0, 0), probabilities=(0.5, 0.5)), "duplicate"),
            (dict(columns=(-1,)), "column"),
            (dict(columns=(10_000,)), "column"),
            (dict(columns=(0, 10_000), probabilities=(0.5, 0.5)), "column"),
            (dict(probabilities=(-0.1,)), "probabilit"),
            (dict(probabilities=(1.5,)), "probabilit"),
            (dict(probabilities=(float("nan"),)), "probabilit"),
            (dict(columns=(0, 1)), "probabilit"),
            (dict(probabilities=(0.5, 0.5)), "probabilit"),
        ],
    )
    def test_bad_points_are_rejected(self, kernel, backend_name, bad, message):
        fields = dict(columns=(0,), probabilities=(0.5,), tolerances=TOLERANCES, seed=0)
        fields.update(bad)
        with pytest.raises(BackendError, match=message):
            run_kernel(kernel, backend_name, (ResolvedGridPoint(**fields),))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_bad_run_arguments_are_rejected(self, kernel, backend_name):
        with pytest.raises(BackendError, match="trial count"):
            run_kernel(kernel, backend_name, (point((0,)),), trials=0)
        with pytest.raises(BackendError, match="trial offset"):
            run_kernel(kernel, backend_name, (point((0,)),), trial_offset=-1)

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize(
        "rows, powers, message",
        [
            (((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0, 1.0), "2 rows for 3 replicas"),
            (((), ()), (1.0, 1.0), "at least one vulnerability"),
        ],
    )
    def test_malformed_exposure_is_rejected(self, backend_name, rows, powers, message):
        backend = get_backend(backend_name)
        with pytest.raises(BackendError, match=message):
            backend.campaign_grid(
                backend.asarray_matrix(rows),
                backend.asarray(powers),
                (point((0,)),),
                trials=5,
                total_power=2.0,
            )

    def test_ragged_exposure_is_rejected(self):
        backend = get_backend("python")
        with pytest.raises(BackendError, match="1 columns for 2 vulnerabilities"):
            backend.campaign_grid(
                ((1.0, 0.0), (1.0,)), (1.0, 1.0), (point((0,)),), trials=5, total_power=2.0
            )

    @needs_numpy
    def test_numpy_matrix_must_be_two_dimensional(self):
        with pytest.raises(BackendError, match="2-D matrix, got 1 dimension"):
            get_backend("numpy").asarray_matrix((1.0, 0.0))

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_bad_powers_and_totals_are_rejected(self, backend_name):
        backend = get_backend(backend_name)
        exposure = backend.asarray_matrix(((1.0, 0.0), (0.0, 1.0)))
        points = (point((0,)),)
        for bad_power in (-1.0, math.nan, math.inf):
            with pytest.raises(BackendError, match="finite and non-negative"):
                backend.campaign_grid(
                    exposure,
                    backend.asarray((1.0, bad_power)),
                    points,
                    trials=5,
                    total_power=2.0,
                )
        for bad_total in (math.nan, math.inf, 0.0):
            with pytest.raises(BackendError, match="positive and finite"):
                backend.campaign_grid(
                    exposure,
                    backend.asarray((1.0, 1.0)),
                    points,
                    trials=5,
                    total_power=bad_total,
                )
