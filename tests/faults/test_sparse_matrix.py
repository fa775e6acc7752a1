"""Tests for the PopulationMatrix sparse layout and streaming build path.

Pins the layout seam the sparse plane hangs off:

- the ``auto`` heuristic keeps every pre-sparse workload dense (goldens
  preserved) and flips to CSR only for large, sparse grids;
- ``from_replica_chunks`` streaming produces the same CSR arrays as a
  ``build(layout="sparse")`` over the materialized population;
- sparse matrices answer the reductions (``exposed_power``,
  ``most_damaging``) identically to dense ones and refuse the dense-only
  ``exposure_rows()`` with a usage error, while every matrix, dense ones
  included, carries the CSR view ``sparse_exposure()`` the kernels run on.
"""

from __future__ import annotations

import pytest

from repro.backend import available_backends
from repro.core.exceptions import FaultModelError
from repro.datasets.generators import stream_replica_chunks
from repro.datasets.software_ecosystem import default_ecosystem
from repro.faults.matrix import (
    AUTO_SPARSE_DENSITY,
    AUTO_SPARSE_MIN_CELLS,
    PopulationMatrix,
    _auto_layout,
)
from repro.faults.scenarios import (
    ecosystem_catalog,
    ecosystem_scenario,
    sparse_ecosystem_matrix,
)

SCENARIO = ecosystem_scenario(
    ecosystem="default", population_size=30, seed=3, exploit_probability=0.5
)


class TestLayoutHeuristic:
    def test_small_grids_stay_dense(self):
        assert _auto_layout(100, 20, 50) == "dense"

    def test_large_sparse_grids_go_sparse(self):
        cells = AUTO_SPARSE_MIN_CELLS * 4
        rows = cells // 64
        nnz = int(cells * AUTO_SPARSE_DENSITY / 2)
        assert _auto_layout(rows, 64, nnz) == "sparse"

    def test_large_dense_grids_stay_dense_until_the_cell_cap(self):
        cells = AUTO_SPARSE_MIN_CELLS * 4
        assert _auto_layout(cells // 64, 64, cells // 2) == "dense"

    def test_every_shipped_scenario_stays_dense(self):
        matrix = PopulationMatrix.build(SCENARIO.population, SCENARIO.catalog)
        assert not matrix.is_sparse

    def test_explicit_layout_overrides(self):
        sparse = PopulationMatrix.build(
            SCENARIO.population, SCENARIO.catalog, layout="sparse"
        )
        dense = PopulationMatrix.build(
            SCENARIO.population, SCENARIO.catalog, layout="dense"
        )
        assert sparse.is_sparse and not dense.is_sparse
        assert sparse.nnz == dense.nnz
        assert sparse.density == dense.density
        assert "layout=sparse" in repr(sparse)
        assert "layout=dense" in repr(dense)

    def test_unknown_layout_raises(self):
        with pytest.raises(FaultModelError, match="matrix layout"):
            PopulationMatrix.build(
                SCENARIO.population, SCENARIO.catalog, layout="csr"
            )


class TestStreamingBuild:
    def test_from_replica_chunks_matches_materialized_build(self):
        ecosystem = default_ecosystem()
        catalog = ecosystem_catalog(ecosystem, exploit_probability=0.5)
        streamed = PopulationMatrix.from_replica_chunks(
            stream_replica_chunks(ecosystem, 200, seed=7, chunk_size=33),
            catalog,
        )
        population = ecosystem.sample_population(200, seed=7)
        built = PopulationMatrix.build(population, catalog, layout="sparse")
        assert streamed.is_sparse
        left, right = streamed.sparse_exposure(), built.sparse_exposure()
        assert bytes(left.indptr) == bytes(right.indptr)
        assert bytes(left.indices) == bytes(right.indices)
        assert bytes(left.powers) == bytes(right.powers)
        assert left.success_probabilities == right.success_probabilities

    def test_replica_ids_are_dropped_unless_kept(self):
        ecosystem = default_ecosystem()
        catalog = ecosystem_catalog(ecosystem)
        anonymous = PopulationMatrix.from_replica_chunks(
            stream_replica_chunks(ecosystem, 10, seed=1), catalog
        )
        with pytest.raises(FaultModelError, match="keep_replica_ids"):
            anonymous.replica_ids
        named = PopulationMatrix.from_replica_chunks(
            stream_replica_chunks(ecosystem, 10, seed=1),
            catalog,
            keep_replica_ids=True,
        )
        assert named.replica_ids[0] == "replica-0"
        assert named.replica_ids[3] == "replica-3"

    def test_empty_stream_raises(self):
        catalog = ecosystem_catalog(default_ecosystem())
        with pytest.raises(FaultModelError, match="empty population"):
            PopulationMatrix.from_replica_chunks(iter(()), catalog)

    def test_sparse_ecosystem_matrix_streams_sparse(self):
        matrix, catalog = sparse_ecosystem_matrix(
            population_size=500, seed=2, exploit_probability=0.4
        )
        assert matrix.is_sparse
        assert matrix.replica_count == 500
        assert matrix.vulnerability_count == len(catalog)
        assert matrix.nnz == 500 * 5  # one component per market

    def test_sparse_ecosystem_matrix_validates_inputs(self):
        with pytest.raises(FaultModelError, match="population size"):
            sparse_ecosystem_matrix(population_size=0)
        with pytest.raises(FaultModelError, match="exploit probability"):
            sparse_ecosystem_matrix(population_size=5, exploit_probability=1.5)


class TestSparseAccessors:
    @pytest.mark.parametrize("backend", available_backends())
    def test_exposed_power_matches_dense(self, backend):
        sparse = PopulationMatrix.build(
            SCENARIO.population, SCENARIO.catalog, layout="sparse"
        )
        dense = PopulationMatrix.build(
            SCENARIO.population, SCENARIO.catalog, layout="dense"
        )
        assert sparse.exposed_power(backend=backend) == dense.exposed_power(
            backend=backend
        )
        assert sparse.most_damaging(3, backend=backend) == dense.most_damaging(
            3, backend=backend
        )

    def test_exposed_power_respects_disclosure_time(self):
        sparse = PopulationMatrix.build(
            SCENARIO.population, SCENARIO.catalog, layout="sparse"
        )
        assert all(
            value == 0.0 for value in sparse.exposed_power(time=-1.0).values()
        )

    def test_dense_accessors_refuse_sparse_matrices(self):
        sparse = PopulationMatrix.build(
            SCENARIO.population, SCENARIO.catalog, layout="sparse"
        )
        with pytest.raises(FaultModelError, match="exposure_rows"):
            sparse.exposure_rows()

    def test_dense_matrix_compresses_on_demand(self):
        dense = PopulationMatrix.build(
            SCENARIO.population, SCENARIO.catalog, layout="dense"
        )
        compressed = dense.sparse_exposure()
        assert compressed.replica_count == dense.replica_count
        assert compressed is dense.sparse_exposure()  # cached
