"""Edge-case tests for the campaign scenario constructors.

Pins the properties the sweep experiments lean on: churn snapshots are
frozen (later churn can't mutate an earlier checkpoint), trajectories are
deterministic across repeated calls, and single-point grids are first-class.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import FaultModelError
from repro.core.resilience import ProtocolFamily
from repro.faults.scenarios import (
    churn_checkpoint_grid,
    churned_scenarios,
    ecosystem_scenario,
)

FAMILIES = (ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO)


def census_of(scenario):
    """A hashable fingerprint of one scenario's population and catalog."""
    return (
        tuple(
            (replica.replica_id, replica.power)
            for replica in scenario.population.replicas()
        ),
        tuple(v.vuln_id for v in scenario.catalog),
    )


class TestChurnedScenarios:
    def test_zero_steps_rejected(self):
        with pytest.raises(FaultModelError, match="churn steps"):
            churned_scenarios(steps=0)
        with pytest.raises(FaultModelError, match="churn steps"):
            churned_scenarios(steps=-5)

    def test_checkpoints_must_fit_in_steps(self):
        with pytest.raises(FaultModelError, match="checkpoints"):
            churned_scenarios(steps=10, checkpoints=0)
        with pytest.raises(FaultModelError, match="checkpoints"):
            churned_scenarios(steps=10, checkpoints=11)

    def test_trajectory_shape_and_step_spacing(self):
        trajectory = churned_scenarios(
            population_size=16, steps=12, checkpoints=3
        )
        steps = [step for step, _ in trajectory]
        assert steps == [0, 4, 8, 12]  # checkpoint 0 plus three even segments

    def test_single_checkpoint_trajectory(self):
        trajectory = churned_scenarios(
            population_size=16, steps=7, checkpoints=1
        )
        assert [step for step, _ in trajectory] == [0, 7]

    def test_snapshots_are_frozen(self):
        """Later churn segments must not reach back into earlier snapshots."""
        trajectory = churned_scenarios(
            population_size=16, steps=20, checkpoints=4
        )
        baseline = ecosystem_scenario(
            ecosystem="default",
            population_size=16,
            seed=0,
            exploit_probability=1.0,
        )
        _, first = trajectory[0]
        assert census_of(first)[0] == census_of(baseline)[0]

    def test_repeated_calls_are_deterministic(self):
        kwargs = dict(population_size=16, steps=15, checkpoints=3, churn_seed=9)
        first = churned_scenarios(**kwargs)
        second = churned_scenarios(**kwargs)
        assert [step for step, _ in first] == [step for step, _ in second]
        for (_, left), (_, right) in zip(first, second):
            assert census_of(left) == census_of(right)

    def test_churn_actually_changes_the_census(self):
        trajectory = churned_scenarios(
            population_size=16, steps=60, checkpoints=2, join_rate=0.9
        )
        fingerprints = {census_of(scenario) for _, scenario in trajectory}
        assert len(fingerprints) > 1


class TestChurnCheckpointGrid:
    def test_single_point_grid(self):
        (point,) = churn_checkpoint_grid(3, budget=2, families=FAMILIES)
        assert point.worst_case == 2
        assert point.seed_offset == 3
        assert point.success_probability is None
        assert len(point.tolerances) == len(FAMILIES)

    def test_checkpoint_zero_is_valid(self):
        (point,) = churn_checkpoint_grid(0, budget=1, families=FAMILIES)
        assert point.seed_offset == 0

    def test_negative_checkpoint_rejected(self):
        with pytest.raises(FaultModelError, match="checkpoint index"):
            churn_checkpoint_grid(-1, budget=1, families=FAMILIES)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(FaultModelError, match="budget"):
            churn_checkpoint_grid(0, budget=0, families=FAMILIES)
