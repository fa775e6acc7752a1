"""Tests for the sharded grid run and its bit-identity guarantees.

The counter-based campaign RNG makes trial-range sharding exact: a shard
computing trials ``[lo, lo+n)`` with ``trial_offset=lo`` draws precisely the
uniforms the serial run draws for those trials, so shard sums reproduce the
serial estimate bit for bit — for one campaign (a one-request grid) or a
whole grid, on dense or sparse matrices, even when workers are killed
mid-run and shards are re-dispatched.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend import available_backends
from repro.backend.base import ResolvedGridPoint
from repro.core.exceptions import FaultModelError
from repro.core.resilience import ProtocolFamily
from repro.faults.engine import (
    GridCampaignEngine,
    GridPointRequest,
    ShardedGridRun,
    _grid_shard_worker,
    merge_campaign_grid_batches,
    split_trial_ranges,
)
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario
from repro.testing.chaos import (
    CHAOS_ENV_VAR,
    CHAOS_ONCE_ENV_VAR,
    reset_chaos,
)

TRIALS = 400
SEED = 3
BFT = (1.0 / 3.0,)
TOLERANCES = (1.0 / 3.0, 0.5)

SCENARIO = ecosystem_scenario(
    ecosystem="default", population_size=24, seed=SEED, exploit_probability=0.6
)

#: One campaign over the whole catalog: what a single estimate runs.
ONE_REQUEST = (
    GridPointRequest(
        tolerances=BFT, vulnerability_ids=tuple(SCENARIO.catalog.ids())
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


def _engine(backend="python", layout="dense"):
    matrix = PopulationMatrix.build(
        SCENARIO.population, SCENARIO.catalog, layout=layout
    )
    return GridCampaignEngine.from_matrix(matrix, backend=backend, chunk_rows=7)


class TestSplitTrialRanges:
    def test_even_split(self):
        assert split_trial_ranges(8, 4) == ((0, 2), (2, 2), (4, 2), (6, 2))

    def test_remainder_goes_to_the_first_ranges(self):
        assert split_trial_ranges(10, 4) == ((0, 3), (3, 3), (6, 2), (8, 2))

    def test_more_shards_than_trials_drops_empty_ranges(self):
        assert split_trial_ranges(5, 8) == ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1))

    def test_ranges_partition_the_trial_sequence(self):
        ranges = split_trial_ranges(137, 6)
        covered = []
        for offset, count in ranges:
            assert offset == len(covered)
            covered.extend(range(offset, offset + count))
        assert covered == list(range(137))

    @pytest.mark.parametrize("trials,shards", [(0, 2), (-1, 2), (5, 0), (5, -3)])
    def test_non_positive_arguments_raise(self, trials, shards):
        with pytest.raises(FaultModelError):
            split_trial_ranges(trials, shards)


class TestShardWorker:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_offset_shards_reproduce_the_serial_campaign(self, backend, layout):
        engine = _engine(backend, layout)
        serial = engine.estimate(trials=TRIALS, seed=SEED)
        matrix = engine.matrix
        exposure = (
            matrix.sparse_exposure()
            if matrix.is_sparse
            else (matrix.exposure_rows(), matrix.powers)
        )
        point = ResolvedGridPoint(
            columns=tuple(range(matrix.vulnerability_count)),
            probabilities=matrix.success_probabilities,
            tolerances=(serial.tolerated_fraction,),
            seed=SEED,
        )
        batches = [
            _grid_shard_worker(
                backend,
                exposure,
                (point,),
                count,
                offset,
                matrix.total_power,
                TRIALS,
                7,
            )
            for offset, count in split_trial_ranges(TRIALS, 5)
        ]
        (merged,) = merge_campaign_grid_batches(batches)
        assert merged.trials == serial.trials
        assert merged.violations == (serial.violations,)
        assert merged.compromised_total == pytest.approx(
            serial.mean_compromised_fraction * TRIALS * matrix.total_power
        )


class TestShardedGridRun:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("requests", [ONE_REQUEST, MULTI_POINT], ids=["one", "multi"])
    def test_thread_sharded_grid_is_bit_identical(self, workers, requests):
        engine = _engine("python")
        serial = engine.estimate_grid(requests, trials=TRIALS, seed=SEED)
        with ThreadPoolExecutor(max_workers=workers) as executor:
            sharded = ShardedGridRun(
                engine, max_workers=workers, executor=executor
            ).estimate_grid(requests, trials=TRIALS, seed=SEED)
        assert sharded == serial

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("workers", [2, 8])
    def test_process_sharded_campaign_is_bit_identical(self, backend, workers):
        engine = _engine(backend)
        serial = engine.estimate(trials=TRIALS, seed=SEED)
        (sharded,) = ShardedGridRun(engine, max_workers=workers).estimate_grid(
            ONE_REQUEST, trials=TRIALS, seed=SEED
        )
        assert sharded.estimate_at(0) == serial

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_vulnerability_subset_matches_serial(self, layout):
        engine = _engine("python", layout)
        subset = tuple(engine.matrix.vulnerability_ids[:3])
        serial = engine.estimate(
            subset, trials=TRIALS, seed=SEED, family=ProtocolFamily.NAKAMOTO
        )
        request = GridPointRequest(tolerances=(0.5,), vulnerability_ids=subset)
        with ThreadPoolExecutor(max_workers=3) as executor:
            (sharded,) = ShardedGridRun(
                engine, max_workers=3, executor=executor
            ).estimate_grid((request,), trials=TRIALS, seed=SEED)
        assert sharded.estimate_at(0) == serial

    def test_nothing_exploitable_skips_the_pool(self):
        engine = _engine("python")
        serial = engine.estimate_grid(ONE_REQUEST, trials=50, seed=SEED, time=-1.0)

        class ExplodingExecutor:
            def submit(self, *args, **kwargs):  # pragma: no cover - must not run
                raise AssertionError("no shards should be submitted")

        sharded = ShardedGridRun(
            engine, max_workers=4, executor=ExplodingExecutor()
        ).estimate_grid(ONE_REQUEST, trials=50, seed=SEED, time=-1.0)
        assert sharded == serial
        assert sharded[0].exploited == ()

    def test_invalid_worker_count_raises(self):
        with pytest.raises(FaultModelError, match="worker count"):
            ShardedGridRun(_engine("python"), max_workers=0)


class TestWorkerKills:
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("requests", [ONE_REQUEST, MULTI_POINT], ids=["one", "multi"])
    def test_killed_worker_changes_nothing(
        self, tmp_path, monkeypatch, layout, requests
    ):
        """A worker hard-killed mid-grid is re-dispatched and the merged
        estimates stay bit-identical to the fault-free serial run."""
        engine = _engine("python", layout)
        serial = engine.estimate_grid(requests, trials=TRIALS, seed=SEED)
        monkeypatch.setenv(CHAOS_ENV_VAR, "crash:1:1@task")
        monkeypatch.setenv(CHAOS_ONCE_ENV_VAR, str(tmp_path / "once"))
        # Forked workers re-read the env; the parent never hits a checkpoint.
        reset_chaos()
        sharded = ShardedGridRun(engine, max_workers=2, retries=3).estimate_grid(
            requests, trials=TRIALS, seed=SEED
        )
        assert sharded == serial
        assert len(list((tmp_path / "once").iterdir())) == 2
