"""Pin the silent fast-path fallbacks to the exact kernels.

The grid knobs ``dtype="float32"`` and ``topk="argpartition"`` are
*optional* accelerations: the numpy dense kernel implements
``argpartition``, while ``float32`` on every backend, and both knobs on
the python backend and every sparse grid path, are accepted for seam
parity but run the exact float64/sort route.  That fallback is a
byte-level contract — a backend that let the knobs leak into the sparse
numerics would silently fork the golden results — so this module asserts
equality (``==`` on the result dataclasses, i.e. bit-identity), never
closeness, on every backend that is available.
"""

from __future__ import annotations

import itertools

import pytest

from repro.backend import available_backends, get_backend
from repro.backend.base import CampaignGridPoint
from repro.faults.engine import GridCampaignEngine, GridPointRequest
from repro.faults.scenarios import ecosystem_scenario, sparse_ecosystem_matrix

TOLERANCES = (1.0 / 3.0, 0.5)
TRIALS = 48
SEED = 3

FAST_KNOBS = tuple(
    {"dtype": dtype, "topk": topk}
    for dtype, topk in itertools.product(
        ("float64", "float32"), ("sort", "argpartition")
    )
    if (dtype, topk) != ("float64", "sort")
)

POINTS = (
    CampaignGridPoint(tolerances=TOLERANCES, budget=3),
    CampaignGridPoint(tolerances=(0.25,), budget=5, seed_offset=7),
)


@pytest.fixture(scope="module")
def sparse_workload():
    matrix, _catalog = sparse_ecosystem_matrix(
        ecosystem="default",
        population_size=300,
        seed=11,
        exploit_probability=0.5,
    )
    return matrix


class TestPythonDenseFallback:
    """The scalar backend has no fast paths: both knobs are exact no-ops."""

    @pytest.fixture(scope="class")
    def dense(self):
        from repro.faults.matrix import PopulationMatrix

        scenario = ecosystem_scenario(
            ecosystem="diverse",
            population_size=24,
            seed=9,
            exploit_probability=0.55,
        )
        matrix = PopulationMatrix.build(scenario.population, scenario.catalog)
        return matrix

    @pytest.mark.parametrize(
        "knobs", FAST_KNOBS, ids=lambda knobs: f"{knobs['dtype']}-{knobs['topk']}"
    )
    def test_grid_knobs_fall_back_to_exact_bytes(self, dense, knobs):
        backend = get_backend("python")
        exposure = backend.asarray_matrix(dense.exposure_rows())
        powers = backend.asarray(dense.powers)

        def run(**grid_knobs):
            return backend.campaign_grid(
                exposure,
                powers,
                dense.success_probabilities,
                POINTS,
                trials=TRIALS,
                seed=SEED,
                total_power=dense.total_power,
                **grid_knobs,
            )

        assert run(**knobs) == run()


class TestSparseGridFallback:
    """Every backend's sparse grid path ignores both knobs byte-exactly."""

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize(
        "knobs", FAST_KNOBS, ids=lambda knobs: f"{knobs['dtype']}-{knobs['topk']}"
    )
    def test_sparse_campaign_grid_knobs_are_exact_noops(
        self, sparse_workload, backend_name, knobs
    ):
        backend = get_backend(backend_name)
        sparse = sparse_workload.sparse_exposure()

        def run(**grid_knobs):
            return backend.sparse_campaign_grid(
                sparse,
                POINTS,
                trials=TRIALS,
                seed=SEED,
                total_power=sparse_workload.total_power,
                **grid_knobs,
            )

        assert run(**knobs) == run()

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_sparse_engine_grid_knobs_are_exact_noops(
        self, sparse_workload, backend_name
    ):
        requests = (
            GridPointRequest(tolerances=TOLERANCES, worst_case=4),
            GridPointRequest(tolerances=(0.5,), worst_case=2, seed_offset=5),
        )

        def run(**engine_knobs):
            engine = GridCampaignEngine.from_matrix(
                sparse_workload, backend=backend_name, **engine_knobs
            )
            return engine.estimate_grid(requests, trials=TRIALS, seed=SEED)

        exact = run()
        assert run(dtype="float32", topk="argpartition") == exact
