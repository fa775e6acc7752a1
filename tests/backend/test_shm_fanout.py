"""The shm kernel pool: the one trial-range fan-out, and its crash policy.

The campaign kernels are counter-based (uniform *n* depends only on
``(seed, n)``), so the shm backend cuts a call's trial range into one range
per worker and the merged ranges equal the serial estimate bit for bit —
at every worker count, on dense and sparse matrices, for one campaign or a
whole grid.

The pool runs on ``ResilientExecutor``, and every trial range a worker
computes passes the chaos harness's ``task`` checkpoint.  With
``crash:1:1@task`` and a shared once-directory, the first attempt of each
range hard-kills its worker; the executor re-dispatches the lost ranges on
a fresh pool, and the merged estimates still equal the NumPy engine's.
A range whose worker dies on every attempt makes the call raise once the
executor's loss budget is spent.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor

import pytest

pytest.importorskip("numpy")

from repro.backend.shm_backend import WORKERS_ENV_VAR
from repro.core.resilience import ProtocolFamily
from repro.faults.engine import GridCampaignEngine, GridPointRequest
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario
from repro.testing.chaos import CHAOS_ENV_VAR, CHAOS_ONCE_ENV_VAR, reset_chaos

TRIALS = 400
SEED = 3
TOLERANCES = (1.0 / 3.0, 0.5)

SCENARIO = ecosystem_scenario(
    ecosystem="default", population_size=24, seed=SEED, exploit_probability=0.6
)

#: One campaign over the whole catalog: what a single estimate runs.
ONE_REQUEST = (
    GridPointRequest(
        tolerances=(1.0 / 3.0,), vulnerability_ids=tuple(SCENARIO.catalog.ids())
    ),
)

MULTI_POINT = (
    GridPointRequest(tolerances=TOLERANCES, worst_case=1),
    GridPointRequest(
        tolerances=TOLERANCES, worst_case=3, success_probability=0.7, seed_offset=1
    ),
    GridPointRequest(
        tolerances=(0.25,),
        vulnerability_ids=tuple(SCENARIO.catalog.ids()[:2]),
        seed_offset=2,
    ),
)


@pytest.fixture(autouse=True)
def _fresh_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    monkeypatch.delenv(CHAOS_ONCE_ENV_VAR, raising=False)
    reset_chaos()
    yield
    reset_chaos()


def _engine(layout, backend):
    matrix = PopulationMatrix.build(
        SCENARIO.population, SCENARIO.catalog, layout=layout
    )
    return GridCampaignEngine.from_matrix(matrix, backend=backend, chunk_rows=7)


def _estimate(layout, backend, requests, **kwargs):
    return _engine(layout, backend).estimate_grid(
        requests, trials=TRIALS, seed=SEED, **kwargs
    )


def _arm_chaos(monkeypatch, rules, once_dir=None):
    monkeypatch.setenv(CHAOS_ENV_VAR, rules)
    if once_dir is not None:
        monkeypatch.setenv(CHAOS_ONCE_ENV_VAR, str(once_dir))
    # Forked workers read the env; the parent never hits a checkpoint.
    reset_chaos()


class TestPooledEstimates:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("requests", [ONE_REQUEST, MULTI_POINT], ids=["one", "multi"])
    def test_pooled_grid_is_bit_identical(
        self, monkeypatch, pooled_shm, workers, layout, requests
    ):
        """One range per worker, merged, equals the serial grid; a single
        worker runs inline and never starts a pool."""
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        expected = _estimate(layout, "numpy", requests)
        assert _estimate(layout, pooled_shm, requests) == expected
        assert (pooled_shm._pool is None) == (workers == 1)

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_vulnerability_subset_matches_serial(self, monkeypatch, pooled_shm, layout):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        subset = tuple(SCENARIO.catalog.ids()[:3])
        kwargs = dict(trials=TRIALS, seed=SEED, family=ProtocolFamily.NAKAMOTO)
        serial = _engine(layout, "numpy").estimate(subset, **kwargs)
        assert _engine(layout, pooled_shm).estimate(subset, **kwargs) == serial

    def test_nothing_exploitable_never_starts_the_pool(self, pooled_shm):
        """Before any disclosure no kernel runs, so no worker is forked."""
        serial = _estimate("dense", "numpy", ONE_REQUEST, time=-1.0)
        pooled = _estimate("dense", pooled_shm, ONE_REQUEST, time=-1.0)
        assert pooled == serial
        assert pooled[0].exploited == ()
        assert pooled_shm._pool is None


class TestWorkerKills:
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("requests", [ONE_REQUEST, MULTI_POINT], ids=["one", "multi"])
    def test_killed_worker_changes_nothing(
        self, tmp_path, monkeypatch, pooled_shm, layout, requests
    ):
        """Each range's worker is hard-killed once; the lost ranges are
        re-dispatched and the merged estimates equal the NumPy engine's."""
        expected = _estimate(layout, "numpy", requests)
        once = tmp_path / "once"
        # The pool forks on the first shm call, after the chaos env is set.
        _arm_chaos(monkeypatch, "crash:1:1@task", once)
        assert _estimate(layout, pooled_shm, requests) == expected
        assert pooled_shm._pool.pool_breaks >= 1
        assert len(list(once.iterdir())) == 2  # one token per range

    def test_ranges_that_keep_killing_workers_raise(self, monkeypatch, pooled_shm):
        """Without a once-directory every attempt dies: the call raises
        after the loss budget instead of computing anything inline."""
        _arm_chaos(monkeypatch, "crash:1@task")
        with pytest.raises(BrokenExecutor):
            _estimate("dense", pooled_shm, ONE_REQUEST)
        pool = pooled_shm._pool
        assert pool.tasks_failed >= 1
        assert pool.losses_redispatched >= pool.max_pool_losses
