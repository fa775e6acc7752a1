"""Cross-backend contract tests for the fused ``campaign_grid`` kernel.

The grid kernel's contract has three load-bearing clauses this module pins:

- every grid point's sub-stream is **bit-identical** to a standalone
  ``campaign_trials`` call on the column-sliced matrix with the point's seed,
  so the backends (and the fused/looped paths) agree exactly, not just
  closely;
- ``trial_offset`` makes chunk boundaries invisible — partitioned runs sum
  to the unchunked totals;
- grid inputs are validated at the seam on **both** backends: empty grids,
  duplicate points, out-of-range or NaN parameters are usage errors
  (:class:`~repro.core.exceptions.BackendError`), never silent zeros.
"""

from __future__ import annotations

import math

import pytest

from repro.backend import NumpyBackend, available_backends, get_backend
from repro.backend.base import CampaignGridPoint
from repro.core.exceptions import BackendError
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario

needs_numpy = pytest.mark.skipif(
    not NumpyBackend.is_available(), reason="numpy not installed"
)

TOLERANCES = (1.0 / 3.0, 0.5)


def grid_fixture(backend_name):
    """(backend, exposure, powers, probabilities, total_power) for one scenario."""
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
        matrix.success_probabilities,
    )


def run_grid(backend_name, points, *, trials=60, seed=3, trial_offset=0, **kwargs):
    backend, matrix, exposure, powers, probabilities = grid_fixture(backend_name)
    return backend.campaign_grid(
        exposure,
        powers,
        probabilities,
        points,
        trials=trials,
        seed=seed,
        total_power=matrix.total_power,
        trial_offset=trial_offset,
        **kwargs,
    )


class TestGridMatchesCampaignTrials:
    """Per-point sub-streams equal standalone campaign_trials calls."""

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_explicit_column_points_match_sliced_campaigns(self, backend_name):
        backend, matrix, exposure, powers, probabilities = grid_fixture(backend_name)
        points = (
            CampaignGridPoint(tolerances=TOLERANCES, columns=(0, 2, 5), seed_offset=0),
            CampaignGridPoint(tolerances=TOLERANCES, columns=(1,), seed_offset=4),
        )
        results = backend.campaign_grid(
            exposure,
            powers,
            probabilities,
            points,
            trials=80,
            seed=7,
            total_power=matrix.total_power,
        )
        ids = matrix.vulnerability_ids
        for point, result in zip(points, results):
            rows, sliced_probabilities = matrix.columns_for(
                tuple(ids[column] for column in point.columns)
            )
            for position, tolerance in enumerate(TOLERANCES):
                reference = backend.campaign_trials(
                    backend.asarray_matrix(rows),
                    powers,
                    sliced_probabilities,
                    trials=80,
                    seed=7 + point.seed_offset,
                    tolerance=tolerance,
                    total_power=matrix.total_power,
                )
                assert result.violations[position] == reference.violations
                assert result.compromised_total == reference.compromised_total
                assert (
                    result.per_vulnerability_totals
                    == reference.per_vulnerability_totals
                )

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_budget_points_select_most_damaging_columns(self, backend_name):
        backend, matrix, *_ = grid_fixture(backend_name)
        by_budget = run_grid(
            backend_name,
            (CampaignGridPoint(tolerances=TOLERANCES, budget=3),),
        )[0]
        ids = matrix.vulnerability_ids
        expected_columns = tuple(
            matrix.vulnerability_index(vuln_id)
            for vuln_id, _ in matrix.most_damaging(3)
        )
        assert by_budget.columns == expected_columns
        explicit = run_grid(
            backend_name,
            (CampaignGridPoint(tolerances=TOLERANCES, columns=expected_columns),),
        )[0]
        assert by_budget == explicit
        assert len(ids) > 3  # the budget actually selected a strict subset

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_probability_overrides(self, backend_name):
        backend, matrix, exposure, powers, _ = grid_fixture(backend_name)
        scalar = run_grid(
            backend_name,
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES, columns=(0, 1), success_probability=0.8
                ),
            ),
        )[0]
        per_column = run_grid(
            backend_name,
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES,
                    columns=(0, 1),
                    success_probabilities=(0.8, 0.8),
                ),
            ),
        )[0]
        assert scalar == per_column
        # p=0 exploits nothing; p=1 compromises every exposed replica,
        # deterministically, in every trial.
        degenerate = run_grid(
            backend_name,
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES, columns=(0,), success_probability=0.0
                ),
                CampaignGridPoint(
                    tolerances=TOLERANCES, columns=(0,), success_probability=1.0
                ),
            ),
            trials=20,
        )
        assert degenerate[0].compromised_total == 0.0
        exposed_power = matrix.exposed_power()[matrix.vulnerability_ids[0]]
        assert degenerate[1].compromised_total == pytest.approx(20 * exposed_power)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_trial_offset_partitions_sum_to_the_whole(self, backend_name):
        points = (
            CampaignGridPoint(tolerances=TOLERANCES, budget=2),
            CampaignGridPoint(tolerances=TOLERANCES, columns=(3, 4), seed_offset=1),
        )
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
    def test_backends_are_bit_identical_in_default_mode(self):
        points = (
            CampaignGridPoint(tolerances=TOLERANCES, budget=4),
            CampaignGridPoint(
                tolerances=(0.25,), columns=(0, 1, 2), success_probability=0.7
            ),
            CampaignGridPoint(tolerances=TOLERANCES, columns=(5,), seed_offset=9),
        )
        assert run_grid("python", points) == run_grid("numpy", points)


class TestGridFastPaths:
    """Opt-in fast paths: tolerance-pinned on numpy, graceful fallback scalar."""

    @needs_numpy
    def test_float32_dtype_is_close_not_identical(self):
        # The contract pins float32 to a tolerance; NumPy's exact fallback
        # meets it with equality.
        points = (CampaignGridPoint(tolerances=TOLERANCES, budget=4),)
        exact = run_grid("numpy", points, trials=400)[0]
        fast = run_grid("numpy", points, trials=400, dtype="float32")[0]
        assert fast.compromised_total == pytest.approx(
            exact.compromised_total, rel=0.05
        )
        for position in range(len(TOLERANCES)):
            assert fast.violations[position] == pytest.approx(
                exact.violations[position], abs=max(4, 0.05 * 400)
            )

    @needs_numpy
    def test_argpartition_topk_agrees_with_sort(self):
        points = (CampaignGridPoint(tolerances=TOLERANCES, budget=3),)
        assert run_grid("numpy", points, topk="argpartition") == run_grid(
            "numpy", points, topk="sort"
        )

    def test_python_backend_falls_back_instead_of_erroring(self):
        # The scalar backend has no reduced-precision or partition path; both
        # knobs must silently select the exact route, per contract.
        points = (CampaignGridPoint(tolerances=TOLERANCES, budget=3),)
        exact = run_grid("python", points)
        assert run_grid("python", points, dtype="float32") == exact
        assert run_grid("python", points, topk="argpartition") == exact


class TestGridValidation:
    """Grid inputs are validated at the seam, identically on every backend."""

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_empty_grid_is_a_usage_error(self, backend_name):
        with pytest.raises(BackendError, match="at least one grid point"):
            run_grid(backend_name, ())

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_duplicate_points_are_rejected(self, backend_name):
        point = CampaignGridPoint(tolerances=TOLERANCES, columns=(0, 1))
        with pytest.raises(BackendError, match="duplicate"):
            run_grid(backend_name, (point, point))

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize(
        "point, message",
        [
            (CampaignGridPoint(tolerances=(), columns=(0,)), "tolerance"),
            (CampaignGridPoint(tolerances=(0.0,), columns=(0,)), "tolerance"),
            (CampaignGridPoint(tolerances=(1.5,), columns=(0,)), "tolerance"),
            (
                CampaignGridPoint(tolerances=(float("nan"),), columns=(0,)),
                "tolerance",
            ),
            (CampaignGridPoint(tolerances=TOLERANCES), "exactly one"),
            (
                CampaignGridPoint(tolerances=TOLERANCES, columns=(0,), budget=2),
                "exactly one",
            ),
            (CampaignGridPoint(tolerances=TOLERANCES, budget=0), "budget"),
            (CampaignGridPoint(tolerances=TOLERANCES, columns=(0, 0)), "duplicate"),
            (CampaignGridPoint(tolerances=TOLERANCES, columns=(-1,)), "column"),
            (CampaignGridPoint(tolerances=TOLERANCES, columns=(10_000,)), "column"),
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES, columns=(0,), success_probability=-0.1
                ),
                "probability",
            ),
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES,
                    columns=(0,),
                    success_probability=float("nan"),
                ),
                "probability",
            ),
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES, columns=(0, 1), success_probabilities=(0.5,)
                ),
                "probabilit",
            ),
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES,
                    columns=(0,),
                    success_probabilities=(0.5,),
                    success_probability=0.5,
                ),
                "both",
            ),
            (
                CampaignGridPoint(
                    tolerances=TOLERANCES, budget=2, success_probabilities=(0.5, 0.5)
                ),
                "budget",
            ),
            (
                CampaignGridPoint(tolerances=TOLERANCES, columns=(0,), seed_offset=-1),
                "seed offset",
            ),
        ],
    )
    def test_bad_points_are_rejected(self, backend_name, point, message):
        with pytest.raises(BackendError, match=message):
            run_grid(backend_name, (point,))

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_bad_run_arguments_are_rejected(self, backend_name):
        point = CampaignGridPoint(tolerances=TOLERANCES, columns=(0,))
        with pytest.raises(BackendError):
            run_grid(backend_name, (point,), trials=0)
        with pytest.raises(BackendError):
            run_grid(backend_name, (point,), trial_offset=-1)
        with pytest.raises(BackendError):
            run_grid(backend_name, (point,), dtype="float16")
        with pytest.raises(BackendError):
            run_grid(backend_name, (point,), topk="heap")

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_negative_power_and_nan_probability_are_rejected(self, backend_name):
        backend = get_backend(backend_name)
        point = CampaignGridPoint(tolerances=TOLERANCES, columns=(0,))
        exposure = backend.asarray_matrix(((1.0, 0.0), (0.0, 1.0)))
        for bad_power in (-1.0, math.nan, math.inf):
            with pytest.raises(BackendError, match="finite and non-negative"):
                backend.campaign_grid(
                    exposure,
                    backend.asarray((1.0, bad_power)),
                    (0.5, 0.5),
                    (point,),
                    trials=5,
                    seed=0,
                    total_power=2.0,
                )
            with pytest.raises(BackendError, match="finite and non-negative"):
                backend.campaign_trials(
                    exposure,
                    backend.asarray((1.0, bad_power)),
                    (0.5, 0.5),
                    trials=5,
                    seed=0,
                    tolerance=0.5,
                    total_power=2.0,
                )
        for bad_total in (math.nan, math.inf):
            with pytest.raises(BackendError, match="positive and finite"):
                backend.campaign_grid(
                    exposure,
                    backend.asarray((1.0, 1.0)),
                    (0.5, 0.5),
                    (point,),
                    trials=5,
                    seed=0,
                    total_power=bad_total,
                )
            with pytest.raises(BackendError, match="positive and finite"):
                backend.campaign_trials(
                    exposure,
                    backend.asarray((1.0, 1.0)),
                    (0.5, 0.5),
                    trials=5,
                    seed=0,
                    tolerance=0.5,
                    total_power=bad_total,
                )
        with pytest.raises(BackendError):
            backend.campaign_grid(
                exposure,
                backend.asarray((1.0, 1.0)),
                (float("nan"), 0.5),
                (point,),
                trials=5,
                seed=0,
                total_power=2.0,
            )
        with pytest.raises(BackendError):
            backend.campaign_grid(
                exposure,
                backend.asarray((1.0, 1.0)),
                (0.5, 0.5),
                (point,),
                trials=5,
                seed=0,
                total_power=0.0,
            )

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_validation_is_not_dependent_on_float_equality_quirks(self, backend_name):
        # NaN must be caught by explicit comparison logic: NaN != NaN, so a
        # naive membership test would let it through.
        assert math.isnan(float("nan"))
        with pytest.raises(BackendError):
            run_grid(
                backend_name,
                (
                    CampaignGridPoint(
                        tolerances=TOLERANCES,
                        columns=(0,),
                        success_probabilities=(float("nan"),),
                    ),
                ),
            )
