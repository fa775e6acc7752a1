"""Tests for the shared-memory multiprocess backend.

Everything here pins the shm backend's one non-negotiable contract: its
results are byte-identical to the plain NumPy backend at every worker
count, pooled or inline.  The ``pooled`` fixture sets the inline threshold
to 0, which forces even these tiny workloads through the real process pool
so the shared-memory publication, worker attach, and merge seams are
exercised, not bypassed.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.backend import (
    availability_errors,
    available_backends,
    get_backend,
    registered_backends,
    shm_backend,
)
from repro.backend.base import ComputeBackend, ResolvedGridPoint, SparseExposure
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.shm_backend import ShmBackend, WORKERS_ENV_VAR
from repro.backend.timing import KERNEL_TIMINGS
from repro.core.exceptions import BackendError
from repro.faults.engine import GridCampaignEngine, GridPointRequest
from repro.faults.scenarios import ecosystem_scenario, sparse_ecosystem_matrix

from campaign_helpers import plain, run_campaign

pytestmark = pytest.mark.skipif(
    not ShmBackend.is_available(), reason="shm backend unavailable here"
)

WORKER_COUNTS = (1, 2, 4)
TRIALS = 67
SEED = 13


@pytest.fixture
def pooled(monkeypatch):
    """Force every kernel call through the worker pool."""
    monkeypatch.setattr(shm_backend, "INLINE_CELL_LIMIT", 0)


@pytest.fixture
def dense_workload():
    """(CSR packed from a dense 0/1 matrix, probabilities, total power)."""
    rng = np.random.default_rng(7)
    replicas, vulnerabilities = 29, 8
    exposure = (rng.random((replicas, vulnerabilities)) < 0.4).astype(float)
    powers = tuple(1.0 for _ in range(replicas))
    probabilities = tuple(
        float(p) for p in rng.random(vulnerabilities) * 0.8 + 0.1
    )
    sparse = SparseExposure.from_dense(exposure, powers, probabilities)
    return sparse, probabilities, float(sum(powers))


def campaign(probabilities, *, seed=SEED, tolerance=0.5):
    """A one-point campaign over every column of the dense workload."""
    return (
        ResolvedGridPoint(
            columns=tuple(range(len(probabilities))),
            probabilities=tuple(probabilities),
            tolerances=(tolerance,),
            seed=seed,
        ),
    )


@pytest.fixture(scope="module")
def sparse_matrix():
    matrix, _catalog = sparse_ecosystem_matrix(
        ecosystem="default",
        population_size=400,
        seed=3,
        exploit_probability=0.45,
    )
    return matrix


@pytest.fixture(scope="module")
def sparse_workload(sparse_matrix):
    return sparse_matrix.sparse_exposure(), sparse_matrix.total_power


class TestRegistration:
    def test_shm_registers_behind_numpy(self):
        names = registered_backends()
        assert "shm" in names
        assert names.index("numpy") < names.index("shm")
        assert names.index("shm") < names.index("python")

    def test_auto_detection_never_picks_shm(self, monkeypatch):
        from repro.backend import BACKEND_ENV_VAR

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().name != "shm"

    def test_env_var_opts_in(self, monkeypatch):
        from repro.backend import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "shm")
        assert get_backend().name == "shm"

    def test_shm_available_implies_numpy_available(self):
        assert "numpy" in available_backends()


class TestAvailabilityReasons:
    def test_available_backends_report_no_error(self):
        reasons = availability_errors()
        assert set(reasons) == set(registered_backends())
        for name in available_backends():
            assert reasons[name] is None

    def test_base_class_fallback_reason(self):
        class Unavailable(ComputeBackend):
            name = "unavailable-probe"

            @classmethod
            def is_available(cls):
                return False

        Unavailable.__abstractmethods__ = frozenset()
        reason = Unavailable.availability_error()
        assert reason is not None
        assert "unavailable-probe" in reason

    def test_shm_matches_is_available(self):
        assert (ShmBackend.availability_error() is None) == (
            ShmBackend.is_available()
        )


class TestConfiguration:
    def test_invalid_worker_count_rejected(self, monkeypatch):
        backend = get_backend("shm")
        for bad in ("zero", "0", "-3"):
            monkeypatch.setenv(WORKERS_ENV_VAR, bad)
            with pytest.raises(BackendError):
                backend._worker_count()

    def test_default_worker_count_is_bounded(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        backend = get_backend("shm")
        assert 1 <= backend._worker_count() <= 4

    def test_calls_below_the_inline_limit_run_inline(
        self, monkeypatch, dense_workload
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        limit = shm_backend.INLINE_CELL_LIMIT
        backend = ShmBackend()
        assert backend._dispatch_workers(limit - 1) == 1
        assert backend._dispatch_workers(limit) == 2
        sparse, probabilities, total_power = dense_workload
        assert TRIALS * sparse.nnz < limit
        kwargs = dict(trials=TRIALS, total_power=total_power)
        points = campaign(probabilities)
        assert run_campaign(backend, sparse, points, **kwargs) == run_campaign(
            NumpyBackend(), sparse, points, **kwargs
        )
        assert backend._pool is None

    def test_one_worker_always_runs_inline(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        assert get_backend("shm")._dispatch_workers(1 << 30) == 1

    def test_a_production_sized_grid_fans_out(self, monkeypatch):
        """One ``grid_sweep`` op's campaign goes to the pool at the default limit.

        150 replicas × 17 vulnerabilities, 24 worst-case points, 500 trials:
        if the inline limit were raised above real workloads, this call
        would silently run inline and no pooled test would notice.
        """
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        scenario = ecosystem_scenario(
            ecosystem="default", population_size=150, seed=1, exploit_probability=0.45
        )
        assert len(scenario.catalog) == 17
        requests = tuple(
            GridPointRequest(
                tolerances=(1.0 / 3.0, 0.5),
                worst_case=budget,
                success_probability=probability,
                seed_offset=index,
            )
            for index, (budget, probability) in enumerate(
                (budget, probability)
                for budget in range(1, 9)
                for probability in (0.45, 0.6, 0.75)
            )
        )
        backend = ShmBackend()
        dispatched = []
        dispatch = backend._dispatch_workers

        def recording_dispatch(cells):
            dispatched.append(dispatch(cells))
            return dispatched[-1]

        monkeypatch.setattr(backend, "_dispatch_workers", recording_dispatch)
        try:
            pooled_estimates = GridCampaignEngine(
                scenario.population, scenario.catalog, backend=backend
            ).estimate_grid(requests, trials=500, seed=1)
            assert dispatched == [2]
            assert backend._pool is not None
        finally:
            backend.close()
        assert pooled_estimates == GridCampaignEngine(
            scenario.population, scenario.catalog, backend="numpy"
        ).estimate_grid(requests, trials=500, seed=1)


class TestDenseIdentity:
    """Campaigns over a dense 0/1 matrix, packed by ``SparseExposure.from_dense``."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_one_point_campaign_matches_numpy(
        self, pooled, monkeypatch, dense_workload, workers
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        sparse, probabilities, total_power = dense_workload
        kwargs = dict(trials=TRIALS, total_power=total_power)
        points = campaign(probabilities)
        assert run_campaign(get_backend("shm"), sparse, points, **kwargs) == run_campaign(
            NumpyBackend(), sparse, points, **kwargs
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_one_point_campaign_with_offset_matches_numpy(
        self, pooled, monkeypatch, dense_workload, workers
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        sparse, probabilities, total_power = dense_workload
        kwargs = dict(trials=31, total_power=total_power, trial_offset=17)
        points = campaign(probabilities, tolerance=1.0 / 3.0)
        assert run_campaign(get_backend("shm"), sparse, points, **kwargs) == run_campaign(
            NumpyBackend(), sparse, points, **kwargs
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_campaign_grid_matches_numpy(
        self, pooled, monkeypatch, dense_workload, workers
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        sparse, probabilities, total_power = dense_workload
        points = (
            ResolvedGridPoint(
                columns=(5, 0, 2),
                probabilities=tuple(probabilities[c] for c in (5, 0, 2)),
                tolerances=(1.0 / 3.0, 0.5),
                seed=SEED,
            ),
            ResolvedGridPoint(
                columns=(7, 3, 1, 6, 4),
                probabilities=tuple(probabilities[c] for c in (7, 3, 1, 6, 4)),
                tolerances=(0.25,),
                seed=SEED + 7,
            ),
            ResolvedGridPoint(
                columns=(1, 4, 6),
                probabilities=(0.7, 0.7, 0.7),
                tolerances=(0.5,),
                seed=SEED,
            ),
        )
        kwargs = dict(trials=TRIALS, total_power=total_power)
        assert run_campaign(get_backend("shm"), sparse, points, **kwargs) == run_campaign(
            NumpyBackend(), sparse, points, **kwargs
        )


class TestSparseIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sparse_grid_partials_matches_numpy(
        self, pooled, monkeypatch, sparse_workload, workers
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        sparse, _total_power = sparse_workload
        column_count = sparse.column_count
        points = (
            ResolvedGridPoint(
                columns=tuple(range(column_count)),
                probabilities=tuple(sparse.success_probabilities),
                tolerances=(0.5,),
                seed=SEED,
            ),
            ResolvedGridPoint(
                columns=tuple(range(0, column_count, 3)),
                probabilities=tuple(0.5 for _ in range(0, column_count, 3)),
                tolerances=(1.0 / 3.0, 0.5),
                seed=17,
            ),
            ResolvedGridPoint(
                columns=(1, 4),
                probabilities=(0.7, 0.2),
                tolerances=(0.25,),
                seed=99,
            ),
        )
        shm = get_backend("shm")
        reference = NumpyBackend()
        kwargs = dict(
            trials=TRIALS,
            trial_offset=5,
            row_offset=0,
            total_rows=sparse.replica_count,
        )
        assert plain(shm.sparse_grid_partials(sparse, points, **kwargs)) == plain(
            reference.sparse_grid_partials(sparse, points, **kwargs)
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_engine_campaigns_match_numpy(
        self, pooled, monkeypatch, sparse_matrix, workers
    ):
        """One campaign and a worst-case grid, row-chunked through the engine."""
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        requests = (
            GridPointRequest(tolerances=(1.0 / 3.0, 0.5), worst_case=4),
            GridPointRequest(tolerances=(0.5,), worst_case=2, seed_offset=11),
        )
        results = {}
        for backend in ("shm", "numpy"):
            engine = GridCampaignEngine.from_matrix(
                sparse_matrix, backend=backend, chunk_rows=150
            )
            results[backend] = (
                engine.estimate(trials=TRIALS, seed=SEED),
                engine.estimate_grid(requests, trials=TRIALS, seed=SEED),
            )
        assert results["shm"] == results["numpy"]

    def test_row_chunk_with_no_selected_cells_yields_exact_zeros(
        self, pooled, monkeypatch, sparse_workload
    ):
        """A row chunk without a cell in the selected columns adds exact zeros."""
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        sparse, _total_power = sparse_workload
        # Restrict to a row slice, then select only columns absent there.
        chunk = sparse.row_slice(0, 40)
        present = set(int(c) for c in np.asarray(chunk.indices))
        absent = tuple(
            column
            for column in range(sparse.column_count)
            if column not in present
        )
        if not absent:
            pytest.skip("every column appears in the first 40 rows")
        points = (
            ResolvedGridPoint(
                columns=absent[:2],
                probabilities=(0.9,) * len(absent[:2]),
                tolerances=(0.5,),
                seed=5,
            ),
        )
        shm = get_backend("shm")
        reference = NumpyBackend()
        kwargs = dict(
            trials=9,
            trial_offset=0,
            row_offset=0,
            total_rows=sparse.replica_count,
        )
        result = plain(shm.sparse_grid_partials(chunk, points, **kwargs))
        assert result == plain(reference.sparse_grid_partials(chunk, points, **kwargs))
        assert all(v == 0.0 for v in result[0][0])


class TestPoolLifecycle:
    def test_pool_recycles_when_worker_count_changes(
        self, pooled, monkeypatch, dense_workload
    ):
        sparse, probabilities, total_power = dense_workload
        shm = get_backend("shm")
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        run_campaign(
            shm, sparse, campaign(probabilities), trials=16, total_power=total_power
        )
        assert shm._pool_workers == 2
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        run_campaign(
            shm, sparse, campaign(probabilities), trials=16, total_power=total_power
        )
        assert shm._pool_workers == 3

    def test_close_releases_pool_and_segments(
        self, pooled, monkeypatch, dense_workload
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        sparse, probabilities, total_power = dense_workload
        points = campaign(probabilities, seed=1)
        kwargs = dict(trials=16, total_power=total_power)
        shm = get_backend("shm")
        run_campaign(shm, sparse, points, **kwargs)
        assert shm._published
        shm.close()
        assert shm._pool is None
        assert not shm._published
        # The backend must keep working after close (fresh pool, republish).
        result = run_campaign(shm, sparse, points, **kwargs)
        assert result == run_campaign(NumpyBackend(), sparse, points, **kwargs)

    def test_publication_is_cached_per_object(
        self, pooled, monkeypatch, dense_workload
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        sparse, probabilities, total_power = dense_workload
        points = campaign(probabilities, seed=1)
        shm = get_backend("shm")
        run_campaign(shm, sparse, points, trials=16, total_power=total_power)
        segments = {handle.segment.name for _, handle in shm._published.values()}
        run_campaign(shm, sparse, points, trials=16, total_power=total_power)
        assert {
            handle.segment.name for _, handle in shm._published.values()
        } == segments


def _campaign_inside_pool_worker(sparse, probabilities, total_power):
    """Run a shm-backed campaign from inside a multiprocessing child.

    Module-level so the outer pool can pickle it by reference.  Returns the
    dispatch decision alongside the result so the parent can assert the
    child degraded to inline instead of building a nested pool (which a
    pool worker can never shut down — its exit skips ``atexit``).
    """
    import multiprocessing

    backend = get_backend("shm")
    dispatch = backend._dispatch_workers(1 << 30)
    result = run_campaign(
        backend,
        sparse,
        campaign(probabilities, seed=5),
        trials=24,
        total_power=total_power,
    )
    return (
        multiprocessing.parent_process() is not None,
        dispatch,
        result,
    )


class TestForkSafety:
    def test_pool_worker_degrades_to_inline_and_matches(
        self, pooled, monkeypatch, dense_workload
    ):
        """A forked engine shard must neither hang nor fork grandchildren.

        The parent primes a live pool first — the historical deadlock shape:
        a child inheriting an active ShmBackend, whose executor corpse it
        must drop, and whose nested-pool temptation it must refuse.
        """
        from concurrent.futures import ProcessPoolExecutor

        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        sparse, probabilities, total_power = dense_workload
        shm = get_backend("shm")
        points = campaign(probabilities, seed=5)
        kwargs = dict(trials=24, total_power=total_power)
        run_campaign(shm, sparse, points, **kwargs)
        assert shm._pool is not None

        with ProcessPoolExecutor(max_workers=2) as outer:
            futures = [
                outer.submit(
                    _campaign_inside_pool_worker,
                    sparse,
                    probabilities,
                    total_power,
                )
                for _ in range(2)
            ]
            # result(timeout=...) turns a reintroduced deadlock into a
            # test failure instead of a hung suite.
            payloads = [future.result(timeout=120) for future in futures]

        expected = run_campaign(NumpyBackend(), sparse, points, **kwargs)
        for in_child, dispatch, result in payloads:
            assert in_child is True
            assert dispatch == 1
            assert result == expected

    def test_dispatch_stays_pooled_in_the_parent(self, pooled, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        shm = get_backend("shm")
        assert shm._dispatch_workers(1 << 30) == 2


class TestDelegationAndTiming:
    def test_non_hot_primitives_delegate_to_numpy(self):
        shm = get_backend("shm")
        reference = NumpyBackend()
        shares = (0.4, 0.3, 0.2, 0.1)
        assert shm.weighted_bincount(
            ("a", "b", "a"), (1.0, 2.0, 3.0)
        ) == reference.weighted_bincount(("a", "b", "a"), (1.0, 2.0, 3.0))
        kwargs = dict(
            vulnerability_probability=0.5,
            exploit_budget=1,
            trials=50,
            seed=3,
            tolerances=(1.0 / 3.0, 1.0 / 2.0),
        )
        assert shm.violation_trials(shares, **kwargs) == reference.violation_trials(
            shares, **kwargs
        )

    def test_sparse_masked_power_sums_delegate_to_numpy(self, sparse_workload):
        sparse, _total_power = sparse_workload
        assert get_backend("shm").sparse_masked_power_sums(
            sparse
        ) == NumpyBackend().sparse_masked_power_sums(sparse)

    def test_kernel_timings_record_shm_dispatch(
        self, pooled, monkeypatch, dense_workload
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        sparse, probabilities, total_power = dense_workload
        before = KERNEL_TIMINGS.snapshot()
        run_campaign(
            get_backend("shm"),
            sparse,
            campaign(probabilities, seed=1),
            trials=16,
            total_power=total_power,
        )
        delta = KERNEL_TIMINGS.delta_since(before)
        assert "shm_campaign_grid" in delta
