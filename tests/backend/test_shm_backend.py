"""Tests for the shared-memory multiprocess backend.

Everything here pins the shm backend's one non-negotiable contract: its
results are byte-identical to the plain NumPy backend at every worker
count, pooled or inline.  ``REPRO_SHM_INLINE_CELLS=0``
forces even these tiny workloads through the real process pool so the
shared-memory publication, worker attach, and merge seams are exercised,
not bypassed.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.backend import (
    availability_errors,
    available_backends,
    get_backend,
    registered_backends,
)
from repro.backend.base import ComputeBackend, ResolvedGridPoint
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.shm_backend import (
    DEFAULT_INLINE_CELL_LIMIT,
    INLINE_ENV_VAR,
    ShmBackend,
    WORKERS_ENV_VAR,
)
from repro.backend.timing import KERNEL_TIMINGS
from repro.core.exceptions import BackendError
from repro.faults.engine import GridCampaignEngine, GridPointRequest
from repro.faults.scenarios import sparse_ecosystem_matrix

pytestmark = pytest.mark.skipif(
    not ShmBackend.is_available(), reason="shm backend unavailable here"
)

WORKER_COUNTS = (1, 2, 4)
TRIALS = 67
SEED = 13


@pytest.fixture
def pooled(monkeypatch):
    """Force every kernel call through the worker pool."""
    monkeypatch.setenv(INLINE_ENV_VAR, "0")


@pytest.fixture
def dense_workload():
    rng = np.random.default_rng(7)
    replicas, vulnerabilities = 29, 8
    exposure = (rng.random((replicas, vulnerabilities)) < 0.4).astype(float)
    powers = tuple(1.0 for _ in range(replicas))
    probabilities = tuple(
        float(p) for p in rng.random(vulnerabilities) * 0.8 + 0.1
    )
    return exposure, powers, probabilities, float(sum(powers))


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

    def test_invalid_inline_limit_rejected(self, monkeypatch):
        monkeypatch.setenv(INLINE_ENV_VAR, "-1")
        with pytest.raises(BackendError):
            ShmBackend._inline_cell_limit()

    def test_default_inline_limit(self, monkeypatch):
        monkeypatch.delenv(INLINE_ENV_VAR, raising=False)
        assert ShmBackend._inline_cell_limit() == DEFAULT_INLINE_CELL_LIMIT


class TestDenseIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_one_point_campaign_matches_numpy(
        self, pooled, monkeypatch, dense_workload, workers
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        exposure, powers, probabilities, total_power = dense_workload
        kwargs = dict(trials=TRIALS, total_power=total_power)
        points = campaign(probabilities)
        assert get_backend("shm").campaign_grid(
            exposure, powers, points, **kwargs
        ) == NumpyBackend().campaign_grid(exposure, powers, points, **kwargs)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_one_point_campaign_with_offset_matches_numpy(
        self, pooled, monkeypatch, dense_workload, workers
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        exposure, powers, probabilities, total_power = dense_workload
        kwargs = dict(trials=31, total_power=total_power, trial_offset=17)
        points = campaign(probabilities, tolerance=1.0 / 3.0)
        assert get_backend("shm").campaign_grid(
            exposure, powers, points, **kwargs
        ) == NumpyBackend().campaign_grid(exposure, powers, points, **kwargs)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_campaign_grid_matches_numpy(
        self, pooled, monkeypatch, dense_workload, workers
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        exposure, powers, probabilities, total_power = dense_workload
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
        assert get_backend("shm").campaign_grid(
            exposure, powers, points, **kwargs
        ) == NumpyBackend().campaign_grid(exposure, powers, points, **kwargs)


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
        assert shm.sparse_grid_partials(
            sparse, points, **kwargs
        ) == reference.sparse_grid_partials(sparse, points, **kwargs)

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
        result = shm.sparse_grid_partials(chunk, points, **kwargs)
        assert result == reference.sparse_grid_partials(chunk, points, **kwargs)
        assert all(v == 0.0 for v in result[0].per_trial_compromised)


class TestPoolLifecycle:
    def test_pool_recycles_when_worker_count_changes(
        self, pooled, monkeypatch, dense_workload
    ):
        exposure, powers, probabilities, total_power = dense_workload
        shm = get_backend("shm")
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        shm.campaign_grid(
            exposure, powers, campaign(probabilities), trials=16, total_power=total_power
        )
        assert shm._pool_workers == 2
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        shm.campaign_grid(
            exposure, powers, campaign(probabilities), trials=16, total_power=total_power
        )
        assert shm._pool_workers == 3

    def test_close_releases_pool_and_segments(
        self, pooled, monkeypatch, dense_workload
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        exposure, powers, probabilities, total_power = dense_workload
        points = campaign(probabilities, seed=1)
        kwargs = dict(trials=16, total_power=total_power)
        shm = get_backend("shm")
        shm.campaign_grid(exposure, powers, points, **kwargs)
        assert shm._published
        shm.close()
        assert shm._pool is None
        assert not shm._published
        # The backend must keep working after close (fresh pool, republish).
        result = shm.campaign_grid(exposure, powers, points, **kwargs)
        assert result == NumpyBackend().campaign_grid(
            exposure, powers, points, **kwargs
        )

    def test_publication_is_cached_per_object(
        self, pooled, monkeypatch, dense_workload
    ):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        exposure, powers, probabilities, total_power = dense_workload
        points = campaign(probabilities, seed=1)
        shm = get_backend("shm")
        shm.campaign_grid(exposure, powers, points, trials=16, total_power=total_power)
        segments = {handle.segment.name for _, handle in shm._published.values()}
        shm.campaign_grid(exposure, powers, points, trials=16, total_power=total_power)
        assert {
            handle.segment.name for _, handle in shm._published.values()
        } == segments


def _campaign_inside_pool_worker(exposure, powers, probabilities, total_power):
    """Run a shm-backed campaign from inside a multiprocessing child.

    Module-level so the outer pool can pickle it by reference.  Returns the
    dispatch decision alongside the result so the parent can assert the
    child degraded to inline instead of building a nested pool (which a
    pool worker can never shut down — its exit skips ``atexit``).
    """
    import multiprocessing

    backend = get_backend("shm")
    dispatch = backend._dispatch_workers(1 << 30)
    result = backend.campaign_grid(
        exposure,
        powers,
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
        exposure, powers, probabilities, total_power = dense_workload
        shm = get_backend("shm")
        points = campaign(probabilities, seed=5)
        kwargs = dict(trials=24, total_power=total_power)
        shm.campaign_grid(exposure, powers, points, **kwargs)
        assert shm._pool is not None

        with ProcessPoolExecutor(max_workers=2) as outer:
            futures = [
                outer.submit(
                    _campaign_inside_pool_worker,
                    exposure,
                    powers,
                    probabilities,
                    total_power,
                )
                for _ in range(2)
            ]
            # result(timeout=...) turns a reintroduced deadlock into a
            # test failure instead of a hung suite.
            payloads = [future.result(timeout=120) for future in futures]

        expected = NumpyBackend().campaign_grid(exposure, powers, points, **kwargs)
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
        assert shm.shannon_entropy(shares) == reference.shannon_entropy(shares)
        assert shm.weighted_bincount(
            ("a", "b", "a"), (1.0, 2.0, 3.0)
        ) == reference.weighted_bincount(("a", "b", "a"), (1.0, 2.0, 3.0))
        kwargs = dict(
            vulnerability_probability=0.5,
            exploit_budget=1,
            trials=50,
            seed=3,
            tolerance=1.0 / 3.0,
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
        exposure, powers, probabilities, total_power = dense_workload
        before = KERNEL_TIMINGS.snapshot()
        get_backend("shm").campaign_grid(
            exposure,
            powers,
            campaign(probabilities, seed=1),
            trials=16,
            total_power=total_power,
        )
        delta = KERNEL_TIMINGS.delta_since(before)
        assert "shm_campaign_grid" in delta
