"""Integration tests for the experiment drivers (paper reproduction checks).

These tests assert the *shape* of each reproduced result — who wins, what is
bounded by what, which direction a sweep moves — using reduced parameters so
the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import ExperimentError
from repro.experiments.attestation_coverage import run_attestation_coverage
from repro.experiments.diversity_ablation import run_diversity_ablation
from repro.experiments.example1 import bft_uniform_entropy, comparison_table, run_example1
from repro.experiments.figure1 import BFT_8_REPLICA_ENTROPY_BITS, figure1_table, run_figure1
from repro.experiments.prop1 import proposition1_table, run_proposition1
from repro.experiments.prop2 import proposition2_table, run_proposition2
from repro.experiments.prop3 import proposition3_table, run_proposition3
from repro.experiments.protocol_safety import (
    nakamoto_table,
    protocol_safety_table,
    run_protocol_safety,
)
from repro.experiments.safety_violation import run_safety_violation, safety_violation_table
from repro.experiments.two_class import run_two_class, two_class_table


class TestFigure1:
    def test_entropy_always_below_three_bits(self):
        result = run_figure1(max_residual_miners=200)
        assert result.always_below_bft8
        assert result.max_entropy_bits < BFT_8_REPLICA_ENTROPY_BITS

    def test_entropy_is_monotone_in_residual_miners(self):
        result = run_figure1(max_residual_miners=100)
        entropies = [point.entropy_bits for point in result.points]
        assert entropies == sorted(entropies)

    def test_caption_point_118_miners(self):
        result = run_figure1(max_residual_miners=101)
        point = [p for p in result.points if p.residual_miners == 101][0]
        assert point.total_miners == 118
        assert 2.8 < point.entropy_bits < 3.0

    def test_full_range_endpoint_values(self):
        result = run_figure1(max_residual_miners=1000, step=999)
        assert result.points[0].entropy_bits == pytest.approx(2.828, abs=0.01)
        assert result.points[-1].entropy_bits == pytest.approx(2.915, abs=0.01)

    def test_table_rendering(self):
        result = run_figure1(max_residual_miners=50)
        assert "entropy (bits)" in figure1_table(result, sample_every=10).render()

    def test_parameter_validation(self):
        with pytest.raises(ExperimentError):
            run_figure1(min_residual_miners=0)
        with pytest.raises(ExperimentError):
            run_figure1(max_residual_miners=5, min_residual_miners=10)

    def test_entropy_at_uses_a_memoized_index(self):
        result = run_figure1(max_residual_miners=50)
        expected = {p.residual_miners: p.entropy_bits for p in result.points}
        # Repeated lookups (Example 1 probes several points) hit the O(1) index.
        for x, entropy in expected.items():
            assert result.entropy_at(x) == entropy
        assert result.__dict__["_entropy_index"] == expected

    def test_entropy_at_unknown_x_raises(self):
        result = run_figure1(max_residual_miners=10)
        with pytest.raises(ExperimentError, match="not part of the sweep"):
            result.entropy_at(11)
        # A second miss after the index is built still raises cleanly.
        with pytest.raises(ExperimentError):
            result.entropy_at(0)


class TestExample1:
    def test_bitcoin_stays_below_eight_replica_bft(self):
        result = run_example1(max_residual_miners=300)
        assert result.bitcoin_below_bft8
        assert result.bft8_entropy_bits == pytest.approx(3.0)
        assert result.effective_configurations < 8.0
        assert result.equivalent_bft_size <= 8

    def test_bft_uniform_entropy_reference(self):
        assert bft_uniform_entropy(8) == pytest.approx(3.0)
        assert bft_uniform_entropy(16) == pytest.approx(4.0)

    def test_table_contains_verdict(self):
        result = run_example1(max_residual_miners=100)
        assert "Bitcoin stays below" in comparison_table(result).render()


class TestPropositions:
    def test_proposition1_holds(self):
        sweep = run_proposition1(kappas=(2, 4, 8))
        assert sweep.holds
        assert len(sweep.cases) == 9
        assert "entropy before" in proposition1_table(sweep).render()

    def test_proposition2_holds_and_shows_the_ceiling(self):
        sweep = run_proposition2(sizes=(18, 117, 1017))
        assert sweep.holds
        assert sweep.oligopoly_entropy_ceiling < 3.0
        assert sweep.uniform_final_entropy == pytest.approx(9.99, abs=0.01)
        assert "regime" in proposition2_table(sweep).render()

    def test_proposition3_tradeoff(self):
        sweep = run_proposition3(kappa=8, abundances=(1, 2, 4, 8))
        assert sweep.holds
        takeovers = [r.max_rational_takeover for r in sweep.quadratic_results]
        assert takeovers == sorted(takeovers, reverse=True)
        messages = [r.message_complexity for r in sweep.quadratic_results]
        assert messages == sorted(messages)
        assert "abundance (omega)" in proposition3_table(sweep).render()

    def test_proposition_parameter_validation(self):
        with pytest.raises(ExperimentError):
            run_proposition1(kappas=())
        with pytest.raises(ExperimentError):
            run_proposition2(sizes=(18,))
        with pytest.raises(ExperimentError):
            run_proposition3(kappa=1)


class TestSafetyViolation:
    def test_violation_probability_decreases_with_entropy(self):
        result = run_safety_violation(trials=400)
        assert result.monotone_decreasing
        first, last = result.rows[0], result.rows[-1]
        assert first.violation_probability_bft >= last.violation_probability_bft
        assert last.violation_probability_bft == 0.0

    def test_table_rendering(self):
        result = run_safety_violation(trials=100)
        assert "P[violation]" in safety_violation_table(result).render()


class TestAttestationCoverageAndTwoClass:
    def test_coverage_improves_registry_fidelity(self):
        result = run_attestation_coverage(population_size=60, fractions=(0.25, 1.0))
        partial, full = result.rows
        assert full.attested_census_entropy_bits == pytest.approx(
            full.true_entropy_bits, abs=1e-9
        )
        assert partial.unknown_power_fraction > full.unknown_power_fraction

    def test_two_class_weighting_reduces_unknown_exposure(self):
        result = run_two_class(population_size=60, weight_ratios=(1.0, 4.0, 16.0), trials=300)
        assert result.improves_with_weight
        fractions = [row.unattested_effective_fraction for row in result.rows]
        assert fractions == sorted(fractions, reverse=True)
        assert result.rows[-1].violation_probability <= result.rows[0].violation_probability
        assert "attested weight ratio" in two_class_table(result).render()

    def test_parameter_validation(self):
        with pytest.raises(ExperimentError):
            run_attestation_coverage(population_size=5)
        with pytest.raises(ExperimentError):
            run_two_class(attested_population_fraction=1.5)


class TestProtocolSafetyAndAblation:
    def test_condition_predicts_protocol_safety(self):
        result = run_protocol_safety()
        assert result.condition_predicts_safety
        by_cell = {(row.deployment, row.protocol): row for row in result.bft_rows}
        diverse_pbft = by_cell[("diverse (unique configs)", "pbft")]
        shared_pbft = by_cell[("shared client on 5 of 7", "pbft")]
        assert diverse_pbft.safety_observed
        assert not shared_pbft.safety_observed
        # The hybrid protocol (intact trusted components) survives even there.
        assert by_cell[("shared client on 5 of 7", "hybrid")].safety_observed
        assert "safety observed" in protocol_safety_table(result).render()

    def test_nakamoto_shared_pool_software_reaches_majority(self):
        result = run_protocol_safety()
        diverse, shared = result.nakamoto_rows
        assert not diverse.majority
        assert shared.majority
        assert shared.double_spend_probability == pytest.approx(1.0)
        assert "majority" in nakamoto_table(result).render()

    def test_protocol_safety_requires_seven_replicas(self):
        with pytest.raises(ExperimentError):
            run_protocol_safety(replica_count=8)

    def test_diversity_ablation_planner_wins(self):
        result = run_diversity_ablation(replica_count=40, trials=300)
        assert result.planner_beats_baselines
        by_strategy = {row.strategy: row for row in result.rows}
        mono = by_strategy["monoculture (most popular)"]
        planner = by_strategy["planner (entropy-maximizing)"]
        assert mono.single_fault_violates_bft
        assert not planner.single_fault_violates_bft
        assert planner.entropy_bits > mono.entropy_bits
