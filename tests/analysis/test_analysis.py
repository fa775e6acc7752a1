"""Tests for the Monte-Carlo estimator, sweep helpers and report tables."""

from __future__ import annotations

import pytest

from repro.analysis.monte_carlo import (
    analytic_single_vulnerability_violation,
    estimate_violation_probability,
    violation_probability_by_entropy,
)
from repro.analysis.report import Table, format_series, format_table
from repro.analysis.sweep import (
    crossover_parameter,
    is_monotonic,
    numeric_summary,
    sweep,
)
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import AnalysisError
from repro.core.resilience import ProtocolFamily
from repro.datasets.generators import uniform_distribution


class TestMonteCarlo:
    def test_monoculture_violation_probability_equals_vulnerability_probability(self):
        census = ConfigurationDistribution({"only": 1.0})
        estimate = estimate_violation_probability(
            census, vulnerability_probability=0.3, trials=5000, seed=1
        )
        assert estimate.violation_probability == pytest.approx(0.3, abs=0.03)

    def test_uniform_census_with_small_shares_never_violates_with_one_exploit(self):
        estimate = estimate_violation_probability(
            uniform_distribution(64),
            vulnerability_probability=0.9,
            exploit_budget=1,
            trials=500,
        )
        assert estimate.violation_probability == 0.0

    def test_larger_exploit_budget_increases_risk(self):
        census = uniform_distribution(4)  # each share is 1/4, below 1/3
        single = estimate_violation_probability(
            census, vulnerability_probability=0.5, exploit_budget=1, trials=2000, seed=2
        )
        double = estimate_violation_probability(
            census, vulnerability_probability=0.5, exploit_budget=2, trials=2000, seed=2
        )
        assert single.violation_probability == 0.0
        assert double.violation_probability > 0.3

    def test_majority_tolerance_is_harder_to_violate(self):
        census = ConfigurationDistribution({"a": 0.4, "b": 0.3, "c": 0.3})
        bft = estimate_violation_probability(
            census, family=ProtocolFamily.BFT, vulnerability_probability=0.5, trials=2000, seed=3
        )
        majority = estimate_violation_probability(
            census,
            family=ProtocolFamily.NAKAMOTO,
            vulnerability_probability=0.5,
            trials=2000,
            seed=3,
        )
        assert majority.violation_probability <= bft.violation_probability

    def test_estimate_matches_analytic_single_exploit_case(self):
        census = ConfigurationDistribution({"big": 0.5, "small-1": 0.25, "small-2": 0.25})
        probability = 0.4
        estimate = estimate_violation_probability(
            census,
            family=ProtocolFamily.BFT,
            vulnerability_probability=probability,
            exploit_budget=1,
            trials=8000,
            seed=4,
        )
        analytic = analytic_single_vulnerability_violation(
            census, vulnerability_probability=probability, tolerated_fraction=1 / 3
        )
        assert estimate.violation_probability == pytest.approx(analytic, abs=0.02)

    def test_violation_probability_by_entropy_is_sorted(self):
        rows = violation_probability_by_entropy(
            {
                "uniform-32": uniform_distribution(32),
                "monoculture": ConfigurationDistribution({"a": 1.0}),
            },
            trials=200,
        )
        assert rows[0][1] <= rows[1][1]

    def test_parameter_validation(self):
        census = uniform_distribution(4)
        with pytest.raises(AnalysisError):
            estimate_violation_probability(census, vulnerability_probability=1.5)
        with pytest.raises(AnalysisError):
            estimate_violation_probability(census, trials=0)
        with pytest.raises(AnalysisError):
            estimate_violation_probability(census, exploit_budget=-1)
        with pytest.raises(AnalysisError):
            analytic_single_vulnerability_violation(
                census, vulnerability_probability=0.5, tolerated_fraction=0.0
            )


class TestSweep:
    def test_sweep_preserves_order_and_values(self):
        result = sweep([1, 2, 3], lambda x: x * x, parameter_name="n")
        assert result.parameters() == (1, 2, 3)
        assert result.values() == (1, 4, 9)
        assert result.value_at(2) == 4
        assert len(result) == 3

    def test_value_at_unknown_parameter_raises(self):
        result = sweep([1], lambda x: x)
        with pytest.raises(AnalysisError):
            result.value_at(99)

    def test_empty_sweep_rejected(self):
        with pytest.raises(AnalysisError):
            sweep([], lambda x: x)

    def test_numeric_summary(self):
        summary = numeric_summary([1.0, 3.0, 2.0])
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["span"] == pytest.approx(2.0)

    def test_is_monotonic(self):
        assert is_monotonic([1, 2, 2, 3])
        assert not is_monotonic([1, 3, 2])
        assert is_monotonic([3, 2, 1], increasing=False)

    def test_crossover_parameter(self):
        result = sweep([1, 2, 3, 4], lambda x: float(x))
        found, parameter = crossover_parameter(result, threshold=3.0)
        assert found and parameter == 3
        found, parameter = crossover_parameter(result, threshold=10.0)
        assert not found and parameter == 4


class TestReport:
    def test_table_rendering_alignment(self):
        table = Table(headers=("name", "value"))
        table.add_row("alpha", 1.23456)
        table.add_row("beta", 2)
        rendered = table.render()
        lines = rendered.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "alpha" in lines[2]
        assert "1.2346" in rendered  # default 4 float digits

    def test_bool_cells_render_as_yes_no(self):
        table = Table(headers=("check",))
        table.add_row(True)
        table.add_row(False)
        assert "yes" in table.render()
        assert "no" in table.render()

    def test_row_length_mismatch_rejected(self):
        table = Table(headers=("a", "b"))
        with pytest.raises(AnalysisError):
            table.add_row(1)

    def test_format_table_requires_headers(self):
        with pytest.raises(AnalysisError):
            format_table((), [])

    def test_format_series(self):
        rendered = format_series("entropy", [(1, 2.5), (2, 2.75)])
        assert "entropy" in rendered
        assert "2.7500" in rendered

    def test_extend(self):
        table = Table(headers=("a", "b"))
        table.extend([(1, 2), (3, 4)])
        assert len(table) == 2


class TestParallelExecution:
    """Parallel fan-out must be a pure performance knob: identical results."""

    def test_parallel_sweep_matches_serial(self):
        serial = sweep([1, 2, 3, 4, 5], lambda x: x * x, parameter_name="n")
        parallel = sweep(
            [1, 2, 3, 4, 5], lambda x: x * x, parameter_name="n", parallel=True
        )
        assert parallel.points == serial.points
        assert parallel.parameter_name == "n"

    def test_parallel_sweep_with_bounded_workers(self):
        result = sweep(range(8), lambda x: -x, parallel=True, max_workers=2)
        assert result.values() == tuple(-x for x in range(8))

    def test_parallel_empty_sweep_rejected(self):
        with pytest.raises(AnalysisError):
            sweep([], lambda x: x, parallel=True)

    def test_parallel_violation_probability_by_entropy_matches_serial(self):
        censuses = {
            "monoculture": ConfigurationDistribution({"a": 1.0}),
            "duopoly": ConfigurationDistribution({"a": 0.6, "b": 0.4}),
            "uniform-16": uniform_distribution(16),
            "uniform-32": uniform_distribution(32),
        }
        serial = violation_probability_by_entropy(censuses, trials=300, seed=13)
        parallel = violation_probability_by_entropy(
            censuses, trials=300, seed=13, parallel=True, max_workers=3
        )
        assert parallel == serial

    def test_parallel_safety_violation_experiment_matches_serial(self):
        from repro.experiments.safety_violation import run_safety_violation

        censuses = {
            "duopoly": ConfigurationDistribution({"a": 0.7, "b": 0.3}),
            "uniform-8": uniform_distribution(8),
            "uniform-64": uniform_distribution(64),
        }
        serial = run_safety_violation(censuses=censuses, trials=300)
        parallel = run_safety_violation(censuses=censuses, trials=300, parallel=True)
        assert parallel == serial


class TestMappingSweep:
    def test_mapping_sweep_enumerates_in_order(self):
        from repro.analysis.sweep import mapping_sweep

        items = {"a": 10, "b": 20, "c": 30}
        serial = mapping_sweep(items, lambda i, k, v: (i, k, v * 2))
        assert serial == [(0, "a", 20), (1, "b", 40), (2, "c", 60)]
        parallel = mapping_sweep(
            items, lambda i, k, v: (i, k, v * 2), parallel=True, max_workers=2
        )
        assert parallel == serial

    def test_mapping_sweep_rejects_empty_mapping(self):
        from repro.analysis.sweep import mapping_sweep

        with pytest.raises(AnalysisError):
            mapping_sweep({}, lambda i, k, v: v)
