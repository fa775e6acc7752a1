"""Tests for :class:`GridCampaignEngine` — the fused grid campaign seam.

Four guarantees carry the re-plumbed sweep experiments:

- every grid point is **bit-identical** to the looped
  :class:`BatchCampaignEngine` calls it replaced (same seeds, same
  selection, same verdicts);
- trial chunking is invisible: a run split into many kernel chunks equals
  the single-chunk run exactly, including at the acceptance scale of
  10\N{SUPERSCRIPT FIVE} trials × 100 grid points;
- trial ranges split over the shm backend's pool workers reproduce the
  in-process estimates;
- malformed grids are :class:`FaultModelError` usage errors, mirroring the
  looped engine's validation surface.
"""

from __future__ import annotations

import math

import pytest

from repro.backend import NumpyBackend, available_backends
from repro.backend.shm_backend import WORKERS_ENV_VAR
from repro.backend.timing import KERNEL_TIMINGS
from repro.core.exceptions import FaultModelError
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.engine import (
    BatchCampaignEngine,
    GridCampaignEngine,
    GridPointRequest,
)
from repro.faults.scenarios import (
    budget_grid,
    ecosystem_scenario,
    family_tolerances,
    reliability_grid,
)

needs_numpy = pytest.mark.skipif(
    not NumpyBackend.is_available(), reason="numpy not installed"
)

SEED = 11
TRIALS = 240
FAMILIES = (ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO)
BFT_TOLERANCE = tolerated_fault_fraction(ProtocolFamily.BFT)


@pytest.fixture(scope="module")
def scenario():
    """A moderately diverse population with 60%-reliable exploits."""
    return ecosystem_scenario(
        ecosystem="default", population_size=24, seed=3, exploit_probability=0.6
    )


def grid_engine(scenario, backend="python", **kwargs):
    return GridCampaignEngine(
        scenario.population, scenario.catalog, backend=backend, **kwargs
    )


class TestGridMatchesBatchEngine:
    """The fused grid reproduces the looped per-point calls bit for bit."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_budget_grid_equals_looped_worst_case(self, scenario, backend):
        engine = grid_engine(scenario, backend)
        batch = BatchCampaignEngine(
            scenario.population, scenario.catalog, backend=backend
        )
        budgets = (1, 2, 4)
        estimates = engine.estimate_grid(
            budget_grid(budgets, families=FAMILIES), trials=TRIALS, seed=SEED
        )
        for index, (budget, point) in enumerate(zip(budgets, estimates)):
            for position, family in enumerate(FAMILIES):
                looped = batch.estimate_worst_case(
                    max_vulnerabilities=budget,
                    trials=TRIALS,
                    seed=SEED + index,
                    family=family,
                )
                assert point.estimate_at(position) == looped

    @pytest.mark.parametrize("backend", available_backends())
    def test_budget_four_breaks_bft_on_the_default_ecosystem(self, backend):
        """Four exploits against the default 150-replica ecosystem's dominant
        components compromise beyond the BFT tolerance in nearly every trial."""
        default = ecosystem_scenario(
            ecosystem="default", population_size=150, seed=42, exploit_probability=0.6
        )
        (point,) = grid_engine(default, backend).estimate_grid(
            budget_grid((4,), families=(ProtocolFamily.BFT,)), trials=500, seed=42
        )
        looped = BatchCampaignEngine(
            default.population, default.catalog, backend=backend
        ).estimate_worst_case(max_vulnerabilities=4, trials=500, seed=42)
        assert point.estimate_at(0) == looped
        assert looped.trials == 500
        assert looped.violation_probability > 0.9
        assert 1 / 3 < looped.mean_compromised_fraction <= 1.0

    @pytest.mark.parametrize("backend", available_backends())
    def test_explicit_ids_equal_looped_estimate(self, scenario, backend):
        ids = scenario.catalog.ids()[:3]
        engine = grid_engine(scenario, backend)
        batch = BatchCampaignEngine(
            scenario.population, scenario.catalog, backend=backend
        )
        (point,) = engine.estimate_grid(
            (
                GridPointRequest(
                    tolerances=(BFT_TOLERANCE,), vulnerability_ids=ids
                ),
            ),
            trials=TRIALS,
            seed=SEED,
        )
        looped = batch.estimate(
            ids, trials=TRIALS, seed=SEED, family=ProtocolFamily.BFT
        )
        assert point.estimate_at(0) == looped

    def test_probability_override_equals_recataloged_scenario(self, scenario):
        """A reliability point equals a full re-catalog at that probability."""
        override = 0.25
        recataloged = ecosystem_scenario(
            ecosystem="default",
            population_size=24,
            seed=3,
            exploit_probability=override,
        )
        engine = grid_engine(scenario, "python")
        batch = BatchCampaignEngine(
            recataloged.population, recataloged.catalog, backend="python"
        )
        (point,) = engine.estimate_grid(
            reliability_grid((override,), budget=2, families=FAMILIES),
            trials=TRIALS,
            seed=SEED,
        )
        for position, family in enumerate(FAMILIES):
            looped = batch.estimate_worst_case(
                max_vulnerabilities=2, trials=TRIALS, seed=SEED, family=family
            )
            assert point.estimate_at(position) == looped

    def test_shared_draws_across_tolerances(self, scenario):
        """Every tolerance judges the same campaigns: per-draw stats agree."""
        engine = grid_engine(scenario, "python")
        (point,) = engine.estimate_grid(
            budget_grid((3,), families=FAMILIES), trials=TRIALS, seed=SEED
        )
        bft, majority = point.estimate_at(0), point.estimate_at(1)
        assert bft.mean_compromised_fraction == majority.mean_compromised_fraction
        assert bft.mean_power_per_vulnerability == majority.mean_power_per_vulnerability
        assert bft.violations >= majority.violations  # 1/3 trips before 1/2

    def test_undisclosed_grid_reports_zeros_without_kernel_calls(self, scenario):
        engine = grid_engine(scenario, "python")
        before = KERNEL_TIMINGS.snapshot()
        (point,) = engine.estimate_grid(
            budget_grid((2,), families=FAMILIES),
            trials=TRIALS,
            seed=SEED,
            time=-1.0,  # before every disclosure
        )
        assert point.exploited == ()
        assert point.violations == (0, 0)
        assert point.mean_compromised_fraction == 0.0
        assert all(
            power == 0.0 for _, power in point.mean_power_per_vulnerability
        )
        assert engine.last_chunk_count == 0
        assert "campaign_grid" not in KERNEL_TIMINGS.delta_since(before)


class TestChunking:
    """Chunk boundaries are invisible to every reported number."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_tiny_chunks_equal_single_chunk(self, scenario, backend):
        requests = budget_grid((1, 2, 3), families=FAMILIES)
        whole = grid_engine(scenario, backend)
        chunked = grid_engine(scenario, backend, max_chunk_cells=2_000)
        expected = whole.estimate_grid(requests, trials=TRIALS, seed=SEED)
        actual = chunked.estimate_grid(requests, trials=TRIALS, seed=SEED)
        assert whole.last_chunk_count == 1
        assert chunked.last_chunk_count > 1
        assert actual == expected

    @needs_numpy
    def test_acceptance_scale_hundred_points_hundred_thousand_trials(self):
        """10^5 trials × 100 grid points, chunk count > 1, equals unchunked."""
        scenario = ecosystem_scenario(
            ecosystem="diverse",
            population_size=12,
            seed=7,
            exploit_probability=0.5,
        )
        ids = scenario.catalog.ids()
        requests = tuple(
            GridPointRequest(
                tolerances=(BFT_TOLERANCE,),
                vulnerability_ids=(ids[index % len(ids)],),
                seed_offset=index,
            )
            for index in range(100)
        )
        trials = 100_000
        whole = grid_engine(scenario, "numpy")
        chunked = grid_engine(scenario, "numpy", max_chunk_cells=20_000_000)
        expected = whole.estimate_grid(requests, trials=trials, seed=SEED)
        actual = chunked.estimate_grid(requests, trials=trials, seed=SEED)
        assert whole.last_chunk_count == 1
        assert chunked.last_chunk_count > 1
        assert actual == expected

    def test_chunk_count_follows_the_cell_budget(self, scenario):
        requests = budget_grid((1, 2), families=FAMILIES)
        engine = grid_engine(scenario, "python", max_chunk_cells=1_000)
        engine.estimate_grid(requests, trials=TRIALS, seed=SEED)
        # Budgets 1 and 2 select three columns over every replica a trial.
        per_chunk = 1_000 // (engine.matrix.replica_count * 3)
        assert per_chunk >= 1
        assert engine.last_chunk_count == math.ceil(TRIALS / per_chunk)

    def test_nonpositive_chunk_budget_rejected(self, scenario):
        with pytest.raises(FaultModelError, match="chunk cell budget"):
            grid_engine(scenario, "python", max_chunk_cells=0)


class TestPooledGrid:
    """Grids whose trial ranges run on the shm pool equal the in-process ones."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pooled_equals_in_process(self, scenario, pooled_shm, monkeypatch, workers):
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        requests = budget_grid((1, 3), families=FAMILIES)
        expected = grid_engine(scenario, "python").estimate_grid(
            requests, trials=TRIALS, seed=SEED
        )
        pooled = grid_engine(scenario, pooled_shm).estimate_grid(
            requests, trials=TRIALS, seed=SEED
        )
        assert pooled == expected
        assert (pooled_shm._pool is None) == (workers == 1)


class TestGridValidation:
    """Malformed grids are usage errors at the engine seam."""

    def test_empty_grid_rejected(self, scenario):
        engine = grid_engine(scenario, "python")
        with pytest.raises(FaultModelError, match="at least one point"):
            engine.estimate_grid((), trials=TRIALS, seed=SEED)

    def test_nonpositive_trials_rejected(self, scenario):
        engine = grid_engine(scenario, "python")
        with pytest.raises(FaultModelError, match="trial count"):
            engine.estimate_grid(
                budget_grid((1,), families=FAMILIES), trials=0, seed=SEED
            )

    @pytest.mark.parametrize(
        "request_, pattern",
        [
            (GridPointRequest(tolerances=(), worst_case=1), "no tolerances"),
            (
                GridPointRequest(tolerances=(0.0,), worst_case=1),
                "tolerated fraction",
            ),
            (
                GridPointRequest(tolerances=(1.5,), worst_case=1),
                "tolerated fraction",
            ),
            (
                GridPointRequest(tolerances=(float("nan"),), worst_case=1),
                "tolerated fraction",
            ),
            (GridPointRequest(tolerances=(0.5,)), "exactly one"),
            (
                GridPointRequest(
                    tolerances=(0.5,), vulnerability_ids=("a",), worst_case=1
                ),
                "exactly one",
            ),
            (
                GridPointRequest(tolerances=(0.5,), vulnerability_ids=()),
                "selects no vulnerabilities",
            ),
            (GridPointRequest(tolerances=(0.5,), worst_case=0), "worst_case"),
            (
                GridPointRequest(
                    tolerances=(0.5,), worst_case=1, seed_offset=-1
                ),
                "seed offset",
            ),
            (
                GridPointRequest(
                    tolerances=(0.5,), worst_case=1, success_probability=1.5
                ),
                "success probability",
            ),
            (
                GridPointRequest(
                    tolerances=(0.5,),
                    worst_case=1,
                    success_probability=float("nan"),
                ),
                "success probability",
            ),
        ],
    )
    def test_bad_grid_points_rejected(self, scenario, request_, pattern):
        engine = grid_engine(scenario, "python")
        with pytest.raises(FaultModelError, match=pattern):
            engine.estimate_grid((request_,), trials=TRIALS, seed=SEED)

    def test_duplicate_ids_within_a_point_rejected(self, scenario):
        vuln_id = scenario.catalog.ids()[0]
        engine = grid_engine(scenario, "python")
        with pytest.raises(FaultModelError, match="duplicate"):
            engine.estimate_grid(
                (
                    GridPointRequest(
                        tolerances=(0.5,), vulnerability_ids=(vuln_id, vuln_id)
                    ),
                ),
                trials=TRIALS,
                seed=SEED,
            )

    def test_empty_catalog_rejected_for_worst_case_points(self, scenario):
        engine = GridCampaignEngine(
            scenario.population, VulnerabilityCatalog(), backend="python"
        )
        with pytest.raises(FaultModelError, match="catalog is empty"):
            engine.estimate_grid(
                budget_grid((1,), families=FAMILIES), trials=TRIALS, seed=SEED
            )


class TestKernelTimings:
    def test_estimate_grid_records_point_trials(self, scenario):
        engine = grid_engine(scenario, "python")
        requests = budget_grid((1, 2), families=FAMILIES)
        before = KERNEL_TIMINGS.snapshot()
        engine.estimate_grid(requests, trials=TRIALS, seed=SEED)
        delta = KERNEL_TIMINGS.delta_since(before)
        counter = delta["campaign_grid"]
        assert counter["calls"] == engine.last_chunk_count == 1
        assert counter["trials"] == TRIALS * len(requests)
        assert counter["seconds"] > 0.0


class TestScenarioGridHelpers:
    """The grid constructors the sweeps feed into the engine."""

    def test_family_tolerances_maps_families(self):
        assert family_tolerances(FAMILIES) == (
            tolerated_fault_fraction(ProtocolFamily.BFT),
            tolerated_fault_fraction(ProtocolFamily.NAKAMOTO),
        )
        with pytest.raises(FaultModelError, match="protocol family"):
            family_tolerances(())

    def test_budget_grid_enumerates_seed_offsets(self):
        points = budget_grid((1, 2, 5), families=FAMILIES)
        assert [point.worst_case for point in points] == [1, 2, 5]
        assert [point.seed_offset for point in points] == [0, 1, 2]
        assert all(point.success_probability is None for point in points)

    def test_budget_grid_validation(self):
        with pytest.raises(FaultModelError, match="at least one"):
            budget_grid((), families=FAMILIES)
        with pytest.raises(FaultModelError, match="positive"):
            budget_grid((1, 0), families=FAMILIES)

    def test_reliability_grid_overrides_probabilities(self):
        points = reliability_grid((0.2, 0.9), budget=3, families=FAMILIES)
        assert [point.success_probability for point in points] == [0.2, 0.9]
        assert all(point.worst_case == 3 for point in points)
        assert [point.seed_offset for point in points] == [0, 1]

    def test_reliability_grid_validation(self):
        with pytest.raises(FaultModelError, match="at least one"):
            reliability_grid((), budget=1, families=FAMILIES)
        with pytest.raises(FaultModelError, match="budget"):
            reliability_grid((0.5,), budget=0, families=FAMILIES)
