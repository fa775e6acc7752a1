"""Cross-backend contract tests for the sparse campaign kernels.

The sparse plane's load-bearing clauses, pinned here:

- :class:`SparseExposure` packs, validates and slices CSR structure without
  ever densifying;
- ``sparse_grid_partials`` draws from the **same** counter-based splitmix64
  stream as the dense ``campaign_grid``, so merged and finalized sparse
  results are bit-identical to dense ones on every backend (and across
  backends);
- the stream counter is global in both the trial and the row dimension:
  trial-range *and* row-range partitions of ``sparse_grid_partials`` merge to
  the unpartitioned result exactly;
- malformed structure and arguments are usage errors
  (:class:`~repro.core.exceptions.BackendError`) on both backends, never
  silent zeros.
"""

from __future__ import annotations

import array
import math
import pickle

import pytest

from repro.backend import available_backends, get_backend
from repro.backend.base import (
    ResolvedGridPoint,
    SparseExposure,
    SparseGridPartial,
    finalize_sparse_point,
    merge_sparse_partials,
)
from repro.core.exceptions import BackendError
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario

TOLERANCES = (1.0 / 3.0, 0.5)
TRIALS = 64
SEED = 13


def fixture(backend_name):
    """(backend, dense matrix, sparse exposure) for one small scenario."""
    scenario = ecosystem_scenario(
        ecosystem="diverse", population_size=40, seed=5, exploit_probability=0.5
    )
    matrix = PopulationMatrix.build(
        scenario.population, scenario.catalog, layout="dense"
    )
    sparse = SparseExposure.from_dense(
        matrix.exposure_rows(),
        matrix.powers,
        matrix.success_probabilities,
    )
    return get_backend(backend_name), matrix, sparse


def top_point(matrix, count, *, seed=SEED, probability=None):
    """A point over the ``count`` most damaging columns, as the engine resolves it."""
    columns = tuple(
        matrix.vulnerability_index(vuln_id)
        for vuln_id, _ in matrix.most_damaging(count)
    )
    return ResolvedGridPoint(
        columns=columns,
        probabilities=(
            (probability,) * count
            if probability is not None
            else tuple(matrix.success_probabilities[column] for column in columns)
        ),
        tolerances=TOLERANCES,
        seed=seed,
    )


def sparse_results(backend, sparse, points, total_power):
    """Full-range partials finalized into per-point results."""
    partials = backend.sparse_grid_partials(sparse, points, trials=TRIALS)
    return tuple(
        finalize_sparse_point(
            partial,
            trials=TRIALS,
            columns=point.columns,
            tolerances=point.tolerances,
            total_power=total_power,
        )
        for point, partial in zip(points, partials)
    )


class TestSparseExposureStructure:
    def test_from_rows_round_trips_from_dense(self):
        _, matrix, sparse = fixture("python")
        by_rows = SparseExposure.from_rows(
            (
                tuple(column for column, cell in enumerate(row) if cell)
                for row in matrix.exposure_rows()
            ),
            matrix.powers,
            matrix.success_probabilities,
        )
        assert bytes(by_rows.indptr) == bytes(sparse.indptr)
        assert bytes(by_rows.indices) == bytes(sparse.indices)
        assert bytes(by_rows.powers) == bytes(sparse.powers)
        assert sparse.replica_count == len(matrix.powers)
        assert sparse.column_count == len(matrix.success_probabilities)
        assert 0.0 < sparse.density < 1.0

    def test_row_slice_rebases_indptr(self):
        _, matrix, sparse = fixture("python")
        piece = sparse.row_slice(10, 25)
        assert piece.replica_count == 15
        assert piece.indptr[0] == 0
        dense_rows = matrix.exposure_rows()[10:25]
        rebuilt = SparseExposure.from_dense(
            dense_rows, matrix.powers[10:25], matrix.success_probabilities
        )
        assert bytes(piece.indptr) == bytes(rebuilt.indptr)
        assert bytes(piece.indices) == bytes(rebuilt.indices)

    def test_validate_rejects_malformed_structure(self):
        _, _, sparse = fixture("python")
        broken = SparseExposure(
            indptr=array.array("q", [0, 2, 1]),
            indices=array.array("q", [0, 1]),
            powers=array.array("d", [1.0, 1.0]),
            success_probabilities=(0.5, 0.5),
            disclosed_at=(0.0, 0.0),
        )
        with pytest.raises(BackendError):
            broken.validate()
        out_of_range = SparseExposure(
            indptr=array.array("q", [0, 1]),
            indices=array.array("q", [5]),
            powers=array.array("d", [1.0]),
            success_probabilities=(0.5, 0.5),
            disclosed_at=(0.0, 0.0),
        )
        with pytest.raises(BackendError):
            out_of_range.validate()
        for bad_power in (-1.0, math.nan, math.inf):
            with pytest.raises(BackendError, match="finite and non-negative"):
                SparseExposure(
                    indptr=array.array("q", [0, 1, 2]),
                    indices=array.array("q", [0, 1]),
                    powers=array.array("d", [1.0, bad_power]),
                    success_probabilities=(0.5, 0.5),
                    disclosed_at=(0.0, 0.0),
                ).validate()
        partial = SparseGridPartial(
            per_trial_compromised=(1.0,) * 4, per_vulnerability_totals=(1.0,)
        )
        for bad_total in (math.nan, math.inf, 0.0):
            with pytest.raises(BackendError, match="positive and finite"):
                finalize_sparse_point(
                    partial,
                    trials=4,
                    columns=(0,),
                    tolerances=TOLERANCES,
                    total_power=bad_total,
                )

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(indptr=[1, 1, 2]), "must start with 0"),
            (dict(powers=[1.0]), "1 powers for 2 replicas"),
            (dict(disclosed_at=(0.0,)), "1 disclosure times for 2 vulnerabilities"),
            (
                dict(indptr=[0, 2, 1, 2], powers=[1.0, 1.0, 1.0]),
                "must be non-decreasing",
            ),
            (dict(indptr=[0, 2, 2], indices=[1, 1]), "strictly increasing"),
            (dict(success_probabilities=(0.5, 1.5)), r"in \[0, 1\]"),
        ],
    )
    def test_validate_names_the_broken_invariant(self, fields, message):
        structure = dict(
            indptr=[0, 1, 2],
            indices=[0, 1],
            powers=[1.0, 1.0],
            success_probabilities=(0.5, 0.5),
            disclosed_at=(0.0, 0.0),
        )
        structure.update(fields)
        sparse = SparseExposure(
            indptr=array.array("q", structure["indptr"]),
            indices=array.array("q", structure["indices"]),
            powers=array.array("d", structure["powers"]),
            success_probabilities=structure["success_probabilities"],
            disclosed_at=structure["disclosed_at"],
        )
        with pytest.raises(BackendError, match=message):
            sparse.validate()

    @pytest.mark.parametrize("start, stop", [(-1, 5), (10, 5), (0, 41)])
    def test_row_slice_out_of_range_is_an_error(self, start, stop):
        _, _, sparse = fixture("python")
        assert sparse.replica_count == 40
        with pytest.raises(BackendError, match="out of range for 40 replicas"):
            sparse.row_slice(start, stop)

    def test_pickle_round_trip_preserves_structure(self):
        _, _, sparse = fixture("python")
        clone = pickle.loads(pickle.dumps(sparse.validate()))
        assert bytes(clone.indptr) == bytes(sparse.indptr)
        assert bytes(clone.indices) == bytes(sparse.indices)
        assert clone.success_probabilities == sparse.success_probabilities


class TestSparseMatchesDense:
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_full_column_campaign_equals_dense(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        point = ResolvedGridPoint(
            columns=tuple(range(sparse.column_count)),
            probabilities=matrix.success_probabilities,
            tolerances=(TOLERANCES[0],),
            seed=SEED,
        )
        dense = backend.campaign_grid(
            backend.asarray_matrix(matrix.exposure_rows()),
            backend.asarray(matrix.powers),
            (point,),
            trials=TRIALS,
            total_power=matrix.total_power,
        )
        assert sparse_results(backend, sparse, (point,), matrix.total_power) == dense

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_multi_point_grid_equals_dense(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        points = (
            top_point(matrix, 3),
            ResolvedGridPoint(
                columns=(0, 2, 5),
                probabilities=tuple(
                    matrix.success_probabilities[column] for column in (0, 2, 5)
                ),
                tolerances=TOLERANCES,
                seed=SEED + 1,
            ),
            top_point(matrix, 2, seed=SEED + 2, probability=0.8),
        )
        dense = backend.campaign_grid(
            backend.asarray_matrix(matrix.exposure_rows()),
            backend.asarray(matrix.powers),
            points,
            trials=TRIALS,
            total_power=matrix.total_power,
        )
        assert sparse_results(backend, sparse, points, matrix.total_power) == dense

    @pytest.mark.skipif(
        len(available_backends()) < 2, reason="needs both backends"
    )
    def test_backends_agree_exactly(self):
        results = []
        for backend_name in available_backends():
            backend, matrix, sparse = fixture(backend_name)
            results.append(
                sparse_results(
                    backend, sparse, (top_point(matrix, 4),), matrix.total_power
                )
            )
        for other in results[1:]:
            assert other == results[0]


class TestPartialPartitioning:
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_trial_ranges_merge_to_the_serial_run(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        point = ResolvedGridPoint(
            columns=tuple(range(sparse.column_count)),
            probabilities=sparse.success_probabilities,
            tolerances=TOLERANCES,
            seed=SEED,
        )
        full = backend.sparse_grid_partials(sparse, (point,), trials=TRIALS)[0]
        # Trial-range partitions concatenate (each chunk covers disjoint
        # trials); the global trial counter makes the pieces line up exactly.
        chunks = [
            backend.sparse_grid_partials(
                sparse, (point,), trials=count, trial_offset=offset
            )[0]
            for offset, count in ((0, 20), (20, 30), (50, TRIALS - 50))
        ]
        concatenated = tuple(
            value for chunk in chunks for value in chunk.per_trial_compromised
        )
        assert concatenated == full.per_trial_compromised
        summed = [0.0] * sparse.column_count
        for chunk in chunks:
            for column, value in enumerate(chunk.per_vulnerability_totals):
                summed[column] += value
        assert tuple(summed) == full.per_vulnerability_totals

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("step", [1, 7, 16, 39])
    def test_row_ranges_merge_to_the_serial_run(self, backend_name, step):
        backend, matrix, sparse = fixture(backend_name)
        point = ResolvedGridPoint(
            columns=tuple(range(sparse.column_count)),
            probabilities=sparse.success_probabilities,
            tolerances=TOLERANCES,
            seed=SEED,
        )
        full = backend.sparse_grid_partials(sparse, (point,), trials=TRIALS)
        chunks = [
            backend.sparse_grid_partials(
                sparse.row_slice(start, min(start + step, sparse.replica_count)),
                (point,),
                trials=TRIALS,
                row_offset=start,
                total_rows=sparse.replica_count,
            )
            for start in range(0, sparse.replica_count, step)
        ]
        merged = merge_sparse_partials(chunks)
        assert merged == full
        finalized = finalize_sparse_point(
            merged[0],
            trials=TRIALS,
            columns=point.columns,
            tolerances=point.tolerances,
            total_power=matrix.total_power,
        )
        reference = finalize_sparse_point(
            full[0],
            trials=TRIALS,
            columns=point.columns,
            tolerances=point.tolerances,
            total_power=matrix.total_power,
        )
        assert finalized == reference

    def test_merging_zero_chunks_is_an_error(self):
        with pytest.raises(BackendError, match="zero sparse partial chunks"):
            merge_sparse_partials([])

    @pytest.mark.parametrize(
        "second, message",
        [
            ((), "grid point count"),
            (
                (
                    SparseGridPartial(
                        per_trial_compromised=(1.0, 2.0, 3.0),
                        per_vulnerability_totals=(6.0,),
                    ),
                ),
                "trial or column counts",
            ),
        ],
    )
    def test_merging_mismatched_chunks_is_an_error(self, second, message):
        first = (
            SparseGridPartial(
                per_trial_compromised=(1.0, 2.0), per_vulnerability_totals=(3.0,)
            ),
        )
        with pytest.raises(BackendError, match=message):
            merge_sparse_partials([first, second])


class TestSparseValidation:
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_empty_point_list_raises(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        with pytest.raises(BackendError):
            backend.sparse_grid_partials(sparse, (), trials=TRIALS)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_out_of_range_column_raises(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        bad = ResolvedGridPoint(
            columns=(sparse.column_count,),
            probabilities=(0.5,),
            tolerances=TOLERANCES,
            seed=SEED,
        )
        with pytest.raises(BackendError, match="out of range"):
            backend.sparse_grid_partials(sparse, (bad,), trials=TRIALS)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_row_chunk_overflowing_total_rows_raises(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        point = ResolvedGridPoint(
            columns=(0,),
            probabilities=(0.5,),
            tolerances=TOLERANCES,
            seed=SEED,
        )
        with pytest.raises(BackendError, match="cannot hold rows"):
            backend.sparse_grid_partials(
                sparse,
                (point,),
                trials=TRIALS,
                row_offset=1,
                total_rows=sparse.replica_count,
            )

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_negative_row_offset_raises(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        with pytest.raises(BackendError, match="row offset must be non-negative"):
            backend.sparse_grid_partials(
                sparse, (top_point(matrix, 2),), trials=TRIALS, row_offset=-1
            )

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_structure_without_rows_or_columns_raises(self, backend_name):
        backend = get_backend(backend_name)
        point = ResolvedGridPoint(
            columns=(0,), probabilities=(0.5,), tolerances=TOLERANCES, seed=SEED
        )
        no_rows = SparseExposure.from_rows((), (), (0.5,))
        with pytest.raises(BackendError, match="at least one replica"):
            backend.sparse_grid_partials(no_rows, (point,), trials=TRIALS)
        no_columns = SparseExposure.from_rows(((),), (1.0,), ())
        with pytest.raises(BackendError, match="at least one vulnerability"):
            backend.sparse_grid_partials(no_columns, (point,), trials=TRIALS)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_invalid_trials_raise(self, backend_name):
        backend, matrix, sparse = fixture(backend_name)
        with pytest.raises(BackendError, match="trial count"):
            backend.sparse_grid_partials(
                sparse, (top_point(matrix, 2),), trials=0
            )

    def test_finalize_rejects_a_partial_of_other_trials(self):
        partial = SparseGridPartial(
            per_trial_compromised=(1.0, 2.0), per_vulnerability_totals=(3.0,)
        )
        with pytest.raises(BackendError, match="2 trial sums but 10 trials"):
            finalize_sparse_point(
                partial,
                trials=10,
                columns=(0,),
                tolerances=TOLERANCES,
                total_power=4.0,
            )
