"""Unit tests for repro.core.resilience (the Section II-C safety condition)."""

from __future__ import annotations

import pytest

from repro.core.exceptions import FaultModelError
from repro.core.resilience import (
    ProtocolFamily,
    SafetyCondition,
    analyze_resilience,
    tolerated_fault_fraction,
)


class TestToleranceBounds:
    def test_bft_tolerates_one_third(self):
        assert tolerated_fault_fraction(ProtocolFamily.BFT) == pytest.approx(1 / 3)

    def test_hybrid_and_nakamoto_tolerate_one_half(self):
        assert tolerated_fault_fraction(ProtocolFamily.HYBRID) == pytest.approx(0.5)
        assert tolerated_fault_fraction(ProtocolFamily.NAKAMOTO) == pytest.approx(0.5)


class TestSafetyCondition:

    def test_fraction_condition_is_exclusive(self):
        condition = SafetyCondition.for_family(ProtocolFamily.BFT, total_power=300.0)
        assert condition.is_safe([99.0])
        assert not condition.is_safe([100.0])  # exactly one third is unsafe
        assert not condition.is_safe([150.0])

    def test_multiple_vulnerabilities_sum(self):
        condition = SafetyCondition.for_family(ProtocolFamily.NAKAMOTO, total_power=100.0)
        assert condition.is_safe([20.0, 20.0])
        assert not condition.is_safe([30.0, 25.0])

    def test_rejects_negative_compromised_power(self):
        condition = SafetyCondition.for_family(ProtocolFamily.BFT, 10.0)
        with pytest.raises(FaultModelError):
            condition.is_safe([-1.0])

    def test_rejects_bad_total_power(self):
        with pytest.raises(FaultModelError):
            SafetyCondition(tolerated_power=1.0, total_power=0.0)


class TestAnalyzeResilience:
    def test_safe_report(self, unique_population):
        report = analyze_resilience(
            unique_population, {"cve-1": 1.0}, family=ProtocolFamily.BFT
        )
        assert report.safe
        assert report.compromised_fraction == pytest.approx(1 / 8)
        assert report.tolerated_power > report.compromised_power

    def test_unsafe_report(self, unique_population):
        report = analyze_resilience(
            unique_population, {"cve-1": 2.0, "cve-2": 2.0}, family=ProtocolFamily.BFT
        )
        assert not report.safe
        assert report.compromised_power == pytest.approx(4.0)

    def test_per_vulnerability_breakdown_is_sorted(self, unique_population):
        report = analyze_resilience(unique_population, {"b": 1.0, "a": 2.0})
        assert [vuln for vuln, _ in report.per_vulnerability] == ["a", "b"]

    def test_total_power_override(self, unique_population):
        report = analyze_resilience(
            unique_population, {"cve": 4.0}, family=ProtocolFamily.NAKAMOTO, total_power=100.0
        )
        assert report.total_power == pytest.approx(100.0)
        assert report.safe
