"""Tests for the campaign engine on sparse-built matrices.

The engine runs every matrix on its CSR view, so the build layout must be an
invisible implementation detail: every estimate off a sparse-built matrix is
bit-identical to a dense-built one's, row chunking (``chunk_rows``) never
changes a number, and
the shm backend's pooled trial ranges reproduce the serial sparse run exactly
— the guarantees the ``ecosystem_scale`` experiment stands on.
"""

from __future__ import annotations

import pytest

from repro.backend import available_backends
from repro.backend.shm_backend import WORKERS_ENV_VAR
from repro.core.exceptions import FaultModelError
from repro.core.resilience import ProtocolFamily
from repro.faults.engine import (
    BatchCampaignEngine,
    GridCampaignEngine,
    GridPointRequest,
)
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario

TRIALS = 96
SEED = 11
TOLERANCES = (1.0 / 3.0, 0.5)

SCENARIO = ecosystem_scenario(
    ecosystem="default", population_size=37, seed=SEED, exploit_probability=0.5
)


def matrices():
    sparse = PopulationMatrix.build(
        SCENARIO.population, SCENARIO.catalog, layout="sparse"
    )
    dense = PopulationMatrix.build(
        SCENARIO.population, SCENARIO.catalog, layout="dense"
    )
    return sparse, dense


GRID = (
    GridPointRequest(tolerances=TOLERANCES, worst_case=2, seed_offset=0),
    GridPointRequest(
        tolerances=TOLERANCES, worst_case=3, success_probability=0.7, seed_offset=1
    ),
)


class TestBatchEngineSparsePath:
    @pytest.mark.parametrize("backend", available_backends())
    def test_estimate_matches_dense(self, backend):
        sparse, dense = matrices()
        sparse_engine = BatchCampaignEngine.from_matrix(sparse, backend=backend)
        dense_engine = BatchCampaignEngine.from_matrix(dense, backend=backend)
        assert sparse_engine.estimate(
            trials=TRIALS, seed=SEED
        ) == dense_engine.estimate(trials=TRIALS, seed=SEED)

    @pytest.mark.parametrize("backend", available_backends())
    def test_subset_and_worst_case_match_dense(self, backend):
        sparse, dense = matrices()
        sparse_engine = BatchCampaignEngine.from_matrix(sparse, backend=backend)
        dense_engine = BatchCampaignEngine.from_matrix(dense, backend=backend)
        subset = list(sparse.vulnerability_ids[:3])
        assert sparse_engine.estimate(
            subset, trials=TRIALS, seed=SEED, family=ProtocolFamily.NAKAMOTO
        ) == dense_engine.estimate(
            subset, trials=TRIALS, seed=SEED, family=ProtocolFamily.NAKAMOTO
        )
        assert sparse_engine.estimate_worst_case(
            max_vulnerabilities=2, trials=TRIALS, seed=SEED
        ) == dense_engine.estimate_worst_case(
            max_vulnerabilities=2, trials=TRIALS, seed=SEED
        )

    @pytest.mark.parametrize("chunk_rows", [1, 7, 64])
    def test_row_chunking_is_invisible(self, chunk_rows):
        sparse, _ = matrices()
        unchunked = BatchCampaignEngine.from_matrix(
            sparse, chunk_rows=10**6
        ).estimate(trials=TRIALS, seed=SEED)
        chunked = BatchCampaignEngine.from_matrix(
            sparse, chunk_rows=chunk_rows
        ).estimate(trials=TRIALS, seed=SEED)
        assert chunked == unchunked

    def test_constructor_guards(self):
        sparse, _ = matrices()
        with pytest.raises(FaultModelError, match="chunk row count"):
            BatchCampaignEngine.from_matrix(sparse, chunk_rows=0)
        with pytest.raises(FaultModelError, match="use from_matrix"):
            BatchCampaignEngine(None, None)

    def test_from_matrix_engine_wraps_the_matrix(self):
        sparse, _ = matrices()
        engine = BatchCampaignEngine.from_matrix(sparse)
        assert engine.matrix is sparse


class TestGridEngineSparsePath:
    @pytest.mark.parametrize("backend", available_backends())
    def test_estimate_grid_matches_dense(self, backend):
        sparse, dense = matrices()
        sparse_grid = GridCampaignEngine.from_matrix(
            sparse, backend=backend
        ).estimate_grid(GRID, trials=TRIALS, seed=SEED)
        dense_grid = GridCampaignEngine.from_matrix(
            dense, backend=backend
        ).estimate_grid(GRID, trials=TRIALS, seed=SEED)
        assert sparse_grid == dense_grid

    def test_explicit_ids_match_dense(self):
        sparse, dense = matrices()
        ids = tuple(sparse.vulnerability_ids[2:5])
        request = (
            GridPointRequest(
                tolerances=TOLERANCES, vulnerability_ids=ids, seed_offset=2
            ),
        )
        assert GridCampaignEngine.from_matrix(sparse).estimate_grid(
            request, trials=TRIALS, seed=SEED
        ) == GridCampaignEngine.from_matrix(dense).estimate_grid(
            request, trials=TRIALS, seed=SEED
        )

    @pytest.mark.parametrize("chunk_rows", [5, 16])
    def test_row_chunking_is_invisible_and_counted(self, chunk_rows):
        sparse, _ = matrices()
        unchunked_engine = GridCampaignEngine.from_matrix(sparse, chunk_rows=10**6)
        chunked_engine = GridCampaignEngine.from_matrix(
            sparse, chunk_rows=chunk_rows
        )
        unchunked = unchunked_engine.estimate_grid(GRID, trials=TRIALS, seed=SEED)
        chunked = chunked_engine.estimate_grid(GRID, trials=TRIALS, seed=SEED)
        assert chunked == unchunked
        expected = -(-sparse.replica_count // chunk_rows)
        assert chunked_engine.last_chunk_count == expected
        assert unchunked_engine.last_chunk_count == 1


class TestPooledSparseRuns:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_campaign_matches_serial(self, pooled_shm, monkeypatch, workers):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        sparse, _ = matrices()
        serial = BatchCampaignEngine.from_matrix(
            sparse, backend="python", chunk_rows=16
        ).estimate(trials=TRIALS, seed=SEED)
        pooled = BatchCampaignEngine.from_matrix(
            sparse, backend=pooled_shm, chunk_rows=16
        ).estimate(trials=TRIALS, seed=SEED)
        assert pooled == serial

    def test_pooled_campaign_subset_matches_serial(self, pooled_shm, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        sparse, _ = matrices()
        subset = tuple(sparse.vulnerability_ids[:4])
        serial = BatchCampaignEngine.from_matrix(sparse, backend="python").estimate(
            subset, trials=TRIALS, seed=SEED
        )
        pooled = BatchCampaignEngine.from_matrix(sparse, backend=pooled_shm).estimate(
            subset, trials=TRIALS, seed=SEED
        )
        assert pooled == serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_grid_matches_serial(self, pooled_shm, monkeypatch, workers):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        sparse, _ = matrices()
        serial = GridCampaignEngine.from_matrix(
            sparse, backend="python", chunk_rows=16
        ).estimate_grid(GRID, trials=TRIALS, seed=SEED)
        pooled = GridCampaignEngine.from_matrix(
            sparse, backend=pooled_shm, chunk_rows=16
        ).estimate_grid(GRID, trials=TRIALS, seed=SEED)
        assert pooled == serial
