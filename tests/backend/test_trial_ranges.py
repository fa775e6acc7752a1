"""Tests for the trial-range partition helpers of the backend seam.

The campaign kernels are counter-based, so a trial range can be cut
anywhere: ``split_trial_ranges`` partitions it, each range runs with its
``trial_offset``, and ``merge_campaign_grid_batches`` sums the dense ranges
back into the unsplit result, bit for bit.  The sparse kernel's trial
ranges are pinned by ``test_sparse_equivalence.py``
(``TestPartialPartitioning.test_trial_ranges_merge_to_the_serial_run``).
"""

from __future__ import annotations

import pytest

from repro.backend import available_backends, get_backend
from repro.backend.base import (
    GridPointResult,
    ResolvedGridPoint,
    merge_campaign_grid_batches,
    split_trial_ranges,
)
from repro.core.exceptions import FaultModelError
from repro.faults.matrix import PopulationMatrix
from repro.faults.scenarios import ecosystem_scenario

TRIALS = 400
SEED = 3

SCENARIO = ecosystem_scenario(
    ecosystem="default", population_size=24, seed=SEED, exploit_probability=0.6
)
MATRIX = PopulationMatrix.build(SCENARIO.population, SCENARIO.catalog)
ALL_COLUMNS = tuple(range(MATRIX.vulnerability_count))

#: One campaign over the whole catalog, and a grid of three points.
ONE_POINT = (
    ResolvedGridPoint(
        columns=ALL_COLUMNS,
        probabilities=MATRIX.success_probabilities,
        tolerances=(1.0 / 3.0,),
        seed=SEED,
    ),
)
MULTI_POINT = ONE_POINT + (
    ResolvedGridPoint(
        columns=(4, 0, 2),
        probabilities=(0.7, 0.7, 0.7),
        tolerances=(1.0 / 3.0, 0.5),
        seed=SEED + 1,
    ),
    ResolvedGridPoint(
        columns=(1, 3),
        probabilities=tuple(MATRIX.success_probabilities[c] for c in (1, 3)),
        tolerances=(0.25,),
        seed=SEED + 2,
    ),
)

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


class TestMergeGridBatches:
    def _point(self, trials, violations, compromised, per_vulnerability):
        return GridPointResult(
            trials=trials,
            columns=(0, 1),
            violations=violations,
            compromised_total=compromised,
            per_vulnerability_totals=per_vulnerability,
        )

    def test_sums_point_wise(self):
        first = (self._point(10, (2, 1), 5.0, (3.0, 2.0)),)
        second = (self._point(6, (1, 0), 2.5, (1.5, 1.0)),)
        (merged,) = merge_campaign_grid_batches((first, second))
        assert merged.trials == 16
        assert merged.violations == (3, 1)
        assert merged.compromised_total == 7.5
        assert merged.per_vulnerability_totals == (4.5, 3.0)

    def test_zero_batches_rejected(self):
        with pytest.raises(FaultModelError, match="zero grid batches"):
            merge_campaign_grid_batches(())

    def test_point_count_mismatch_rejected(self):
        point = self._point(4, (0, 0), 0.0, (0.0, 0.0))
        with pytest.raises(FaultModelError, match="point count"):
            merge_campaign_grid_batches(((point,), (point, point)))

    def test_tolerance_width_mismatch_rejected(self):
        left = self._point(4, (0, 0), 0.0, (0.0, 0.0))
        right = GridPointResult(
            trials=4,
            columns=(0, 1),
            violations=(0,),
            compromised_total=0.0,
            per_vulnerability_totals=(0.0, 0.0),
        )
        with pytest.raises(FaultModelError, match="columns or tolerances"):
            merge_campaign_grid_batches(((left,), (right,)))


class TestDenseTrialRanges:
    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("shards", [2, 5, 8])
    @pytest.mark.parametrize("points", [ONE_POINT, MULTI_POINT], ids=["one", "multi"])
    def test_offset_ranges_merge_to_the_unsplit_grid(self, backend_name, shards, points):
        backend = get_backend(backend_name)
        exposure = backend.asarray_matrix(MATRIX.exposure_rows())
        powers = backend.asarray(MATRIX.powers)
        whole = backend.campaign_grid(
            exposure, powers, points, trials=TRIALS, total_power=MATRIX.total_power
        )
        batches = [
            backend.campaign_grid(
                exposure,
                powers,
                points,
                trials=count,
                total_power=MATRIX.total_power,
                trial_offset=offset,
            )
            for offset, count in split_trial_ranges(TRIALS, shards)
        ]
        assert merge_campaign_grid_batches(batches) == whole
