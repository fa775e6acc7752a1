"""Integration tests for the extension experiments (window, decentralized pools)."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ExperimentError
from repro.experiments.decentralized_pools import (
    decentralization_table,
    run_decentralized_pools,
)
from repro.experiments.vulnerability_window import run_vulnerability_window, window_table


class TestVulnerabilityWindowExperiment:
    def test_both_levers_shrink_the_window(self):
        result = run_vulnerability_window(
            population_size=30,
            adoption_latencies=(20.0, 5.0, 1.0),
            recovery_periods=(4.0, 1.0),
            horizon=120.0,
        )
        assert result.patching_faster_is_better
        assert result.recovery_faster_is_better
        assert result.compromised_fraction > 1 / 3  # the zero-day matters

    def test_peak_is_independent_of_patch_speed(self):
        result = run_vulnerability_window(
            population_size=30, adoption_latencies=(20.0, 1.0), recovery_periods=(1.0,)
        )
        patch_rows = [row for row in result.rows if row.mechanism == "patch rollout"]
        assert patch_rows[0].peak_exposed_fraction == pytest.approx(
            patch_rows[1].peak_exposed_fraction
        )

    def test_table_rendering(self):
        result = run_vulnerability_window(
            population_size=20, adoption_latencies=(5.0,), recovery_periods=(1.0,)
        )
        assert "exposure area" in window_table(result).render()

    def test_parameter_validation(self):
        with pytest.raises(ExperimentError):
            run_vulnerability_window(population_size=2)
        with pytest.raises(ExperimentError):
            run_vulnerability_window(adoption_latencies=())

    @pytest.mark.parametrize("horizon", [-5.0, 0.0])
    def test_non_positive_horizon_rejected(self, horizon):
        # Both sweeps start at time 0; an earlier horizon would give
        # negative recovery areas and a silently replaced patch horizon.
        with pytest.raises(ExperimentError, match="horizon"):
            run_vulnerability_window(
                population_size=20,
                adoption_latencies=(5.0,),
                recovery_periods=(1.0,),
                horizon=horizon,
            )


class TestDecentralizedPoolsExperiment:
    def test_entropy_grows_and_takeover_shrinks(self):
        result = run_decentralized_pools(members_per_pool=10, steps=(0, 3, 17))
        assert result.entropy_is_monotone
        rows = result.rows
        assert rows[0].entropy_bits < 3.0
        assert rows[-1].entropy_bits > 5.0
        assert rows[-1].coalition_takeover < rows[0].coalition_takeover
        assert rows[-1].largest_fault_domain < rows[0].largest_fault_domain

    def test_baseline_row_matches_figure1_shape(self):
        result = run_decentralized_pools(residual_miners=101, steps=(0,))
        assert result.rows[0].effective_replicas == 118
        assert 2.8 < result.rows[0].entropy_bits < 3.0

    def test_table_rendering(self):
        result = run_decentralized_pools(steps=(0, 17))
        assert "decentralized pools" in decentralization_table(result).render()

    def test_parameter_validation(self):
        with pytest.raises(ExperimentError):
            run_decentralized_pools(members_per_pool=0)
        with pytest.raises(ExperimentError):
            run_decentralized_pools(steps=(18,))
        with pytest.raises(ExperimentError):
            run_decentralized_pools(coalition_size=0)


class TestCampaignBudgetExperiment:
    def test_violation_probability_grows_with_budget(self):
        from repro.experiments.campaign_budget import (
            campaign_budget_table,
            run_campaign_budget,
        )

        result = run_campaign_budget(budgets=(1, 3, 6), trials=200)
        assert result.monotone_increasing
        series = [row.violation_probability_bft for row in result.rows]
        assert series[-1] > series[0]
        # The majority tolerance is harder to violate than BFT's.
        for row in result.rows:
            assert row.violation_probability_majority <= row.violation_probability_bft
        assert "budget m" in campaign_budget_table(result).render()

    def test_parameter_validation(self):
        from repro.experiments.campaign_budget import run_campaign_budget

        with pytest.raises(ExperimentError):
            run_campaign_budget(budgets=())
        with pytest.raises(ExperimentError):
            run_campaign_budget(budgets=(1, 0))


class TestCampaignReliabilityExperiment:
    def test_violation_probability_grows_with_reliability(self):
        from repro.experiments.campaign_reliability import run_campaign_reliability

        result = run_campaign_reliability(
            exploit_probabilities=(0.3, 0.6, 0.9), trials=200
        )
        assert result.monotone_increasing
        series = [row.violation_probability_bft for row in result.rows]
        assert series[-1] > series[0]

    def test_parameter_validation(self):
        from repro.experiments.campaign_reliability import run_campaign_reliability

        with pytest.raises(ExperimentError):
            run_campaign_reliability(exploit_probabilities=())
        with pytest.raises(ExperimentError):
            run_campaign_reliability(budget=0)


class TestCampaignChurnExperiment:
    def test_trajectory_shape(self):
        from repro.experiments.campaign_churn import run_campaign_churn

        result = run_campaign_churn(steps=40, checkpoints=2, trials=100)
        assert [row.step for row in result.rows] == [0, 20, 40]
        assert all(0.0 <= row.violation_probability_bft <= 1.0 for row in result.rows)
        assert result.entropy_drift == pytest.approx(
            result.rows[-1].entropy_bits - result.rows[0].entropy_bits
        )

    def test_parameter_validation(self):
        from repro.core.exceptions import FaultModelError
        from repro.experiments.campaign_churn import run_campaign_churn
        from repro.faults.scenarios import churned_scenarios, resolve_ecosystem

        with pytest.raises(ExperimentError):
            run_campaign_churn(budget=0)
        with pytest.raises(FaultModelError):
            churned_scenarios(steps=0)
        with pytest.raises(FaultModelError):
            churned_scenarios(steps=10, checkpoints=11)
        with pytest.raises(FaultModelError):
            resolve_ecosystem("martian")
