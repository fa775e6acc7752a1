"""Cross-backend equivalence tests.

The contract under test:

- each backend is bit-deterministic for a fixed seed (identical
  ``SafetyViolationEstimate`` on repeated runs);
- the pure-Python backend reproduces the pre-backend scalar loop exactly
  (same ``random.Random`` stream, same summation order);
- python and numpy backends agree within Monte-Carlo tolerance on violation
  probabilities and mean compromised fractions, and both agree with the
  closed-form ``analytic_single_vulnerability_violation`` check;
- the entropy and weighted-accumulation kernels agree across backends.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.monte_carlo import (
    analytic_single_vulnerability_violation,
    estimate_violation_probability,
)
from repro.backend import NumpyBackend, available_backends, get_backend
from repro.backend.base import ResolvedGridPoint
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import BackendError, ReproError
from repro.datasets.generators import (
    oligopoly_distribution,
    uniform_distribution,
    zipf_distribution,
)

needs_numpy = pytest.mark.skipif(
    not NumpyBackend.is_available(), reason="numpy not installed"
)

CENSUSES = {
    "monoculture": ConfigurationDistribution({"only": 1.0}),
    "duopoly": ConfigurationDistribution({"a": 0.7, "b": 0.3}),
    "zipf-32": zipf_distribution(32, 1.2),
    "oligopoly": oligopoly_distribution(5, 0.9, 50),
    "uniform-64": uniform_distribution(64),
}

#: A long-tailed census whose largest share (0.23) is below the BFT 1/3.
ZIPF_1000 = zipf_distribution(1000, 1.2)


def legacy_reference_estimate(census, *, vulnerability_probability, exploit_budget, trials, seed, tolerance):
    """The pre-backend scalar loop, verbatim (including the per-trial sort)."""
    shares = sorted(census.probabilities(), reverse=True)
    rng = random.Random(seed)
    violations = 0
    compromised_total = 0.0
    for _ in range(trials):
        vulnerable = [share for share in shares if rng.random() < vulnerability_probability]
        vulnerable.sort(reverse=True)
        compromised = sum(vulnerable[:exploit_budget])
        compromised_total += compromised
        if compromised >= tolerance:
            violations += 1
    return violations, compromised_total


class TestPythonBackendMatchesLegacyLoop:
    @pytest.mark.parametrize("label", sorted(CENSUSES))
    @pytest.mark.parametrize("budget", [0, 1, 3, 1000])
    def test_bit_identical_to_pre_backend_implementation(self, label, budget):
        census = CENSUSES[label]
        estimate = estimate_violation_probability(
            census,
            vulnerability_probability=0.3,
            exploit_budget=budget,
            trials=400,
            seed=11,
            backend="python",
        )
        violations, compromised_total = legacy_reference_estimate(
            census,
            vulnerability_probability=0.3,
            exploit_budget=budget,
            trials=400,
            seed=11,
            tolerance=estimate.tolerated_fraction,
        )
        assert estimate.violations == violations
        assert estimate.mean_compromised_fraction == compromised_total / 400


class TestPerBackendDeterminism:
    @pytest.mark.parametrize("backend", available_backends())
    def test_identical_seed_gives_identical_estimate(self, backend):
        census = CENSUSES["zipf-32"]
        first = estimate_violation_probability(
            census, vulnerability_probability=0.4, exploit_budget=2, trials=500, seed=9, backend=backend
        )
        second = estimate_violation_probability(
            census, vulnerability_probability=0.4, exploit_budget=2, trials=500, seed=9, backend=backend
        )
        assert first == second

    @needs_numpy
    @pytest.mark.parametrize("budget", [1, 2, 32])
    def test_numpy_census_chunks_are_invisible(self, monkeypatch, budget):
        from repro.backend import numpy_backend

        shares = sorted(CENSUSES["zipf-32"].probabilities(), reverse=True)
        kwargs = dict(
            vulnerability_probability=0.3, exploit_budget=budget, trials=50, seed=4, tolerance=0.2
        )
        whole = NumpyBackend().violation_trials(shares, **kwargs)
        # 7 rows per chunk: seven full chunks and a one-row last chunk.
        monkeypatch.setattr(numpy_backend, "_CHUNK_CELLS", 7 * len(shares))
        chunked = NumpyBackend().violation_trials(shares, **kwargs)
        assert 0 < whole.violations < 50
        assert chunked.violations == whole.violations
        # Per-chunk partial sums round differently in the last ulp.
        assert chunked.compromised_total == pytest.approx(whole.compromised_total, rel=1e-12)

    @pytest.mark.parametrize("backend", available_backends())
    def test_different_seeds_usually_differ(self, backend):
        census = CENSUSES["duopoly"]
        estimates = {
            estimate_violation_probability(
                census, vulnerability_probability=0.5, trials=200, seed=seed, backend=backend
            ).violations
            for seed in range(6)
        }
        assert len(estimates) > 1


@needs_numpy
class TestCrossBackendAgreement:
    @pytest.mark.parametrize("label", sorted(CENSUSES))
    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_violation_probability_within_mc_tolerance(self, label, budget):
        census = CENSUSES[label]
        estimates = {
            backend: estimate_violation_probability(
                census,
                vulnerability_probability=0.3,
                exploit_budget=budget,
                trials=6000,
                seed=17,
                backend=backend,
            )
            for backend in ("python", "numpy")
        }
        python, numpy = estimates["python"], estimates["numpy"]
        assert python.violation_probability == pytest.approx(
            numpy.violation_probability, abs=0.03
        )
        assert python.mean_compromised_fraction == pytest.approx(
            numpy.mean_compromised_fraction, abs=0.01
        )
        assert python.tolerated_fraction == numpy.tolerated_fraction

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_agreement_with_analytic_single_exploit_formula(self, backend):
        census = ConfigurationDistribution(
            {"big": 0.5, "mid": 0.35, "small-1": 0.1, "small-2": 0.05}
        )
        probability = 0.35
        estimate = estimate_violation_probability(
            census,
            vulnerability_probability=probability,
            exploit_budget=1,
            trials=8000,
            seed=23,
            backend=backend,
        )
        analytic = analytic_single_vulnerability_violation(
            census, vulnerability_probability=probability, tolerated_fraction=1 / 3
        )
        assert estimate.violation_probability == pytest.approx(analytic, abs=0.02)

    @pytest.mark.parametrize("budget", [1, 3])
    def test_impossible_and_certain_verdicts_are_exact_on_both_backends(self, budget):
        # Verdicts driven by exact share arithmetic must agree bit-for-bit:
        # uniform-64 shares can never reach 1/3 with <= 3 exploits, the
        # largest share of Zipf(1.2) over 1,000 configurations (0.23) can
        # never reach it alone, and a monoculture with p=1 always violates.
        never = [(uniform_distribution(64), 0.9, 300)]
        if budget == 1:
            never.append((ZIPF_1000, 0.25, 2500))
        for backend in available_backends():
            for census, probability, trials in never:
                estimate = estimate_violation_probability(
                    census,
                    vulnerability_probability=probability,
                    exploit_budget=budget,
                    trials=trials,
                    seed=5,
                    backend=backend,
                )
                assert estimate.trials == trials
                assert estimate.violation_probability == 0.0
                assert 0.0 < estimate.mean_compromised_fraction < 1 / 3
            always = estimate_violation_probability(
                CENSUSES["monoculture"],
                vulnerability_probability=1.0,
                exploit_budget=budget,
                trials=300,
                seed=5,
                backend=backend,
            )
            assert always.violation_probability == 1.0

    def test_three_exploits_on_a_long_tail_agree_within_mc_tolerance(self):
        # Three exploits sometimes reach 1/3 on Zipf(1.2) over 1,000
        # configurations, but rarely, and every backend sees the same rate.
        estimates = [
            estimate_violation_probability(
                ZIPF_1000,
                vulnerability_probability=0.25,
                exploit_budget=3,
                trials=2500,
                seed=42,
                backend=backend,
            )
            for backend in available_backends()
        ]
        probabilities = [estimate.violation_probability for estimate in estimates]
        fractions = [estimate.mean_compromised_fraction for estimate in estimates]
        assert 0.0 < min(probabilities) and max(probabilities) < 0.5
        assert max(probabilities) - min(probabilities) <= 0.03
        assert max(fractions) - min(fractions) <= 0.01


class TestEntropyKernel:
    @pytest.mark.parametrize("backend", available_backends())
    def test_matches_reference_entropy(self, backend):
        kernel = get_backend(backend)
        assert kernel.shannon_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0)
        assert kernel.shannon_entropy([1.0]) == 0.0
        assert kernel.shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", available_backends())
    def test_log_base_sets_the_unit(self, backend):
        kernel = get_backend(backend)
        assert kernel.shannon_entropy([0.5, 0.5], base=4.0) == pytest.approx(0.5)
        assert kernel.shannon_entropy([0.5, 0.5], base=math.e) == pytest.approx(
            math.log(2.0)
        )

    @pytest.mark.parametrize("backend", available_backends())
    def test_degenerate_log_base_is_rejected(self, backend):
        kernel = get_backend(backend)
        for base in (1.0, 0.0, -2.0):
            with pytest.raises(ReproError, match="base must be positive and != 1"):
                kernel.shannon_entropy([0.5, 0.5], base=base)

    @needs_numpy
    def test_backends_agree_on_skewed_vector(self):
        probabilities = zipf_distribution(100, 1.5).probabilities()
        python = get_backend("python").shannon_entropy(probabilities)
        numpy = get_backend("numpy").shannon_entropy(probabilities)
        assert python == pytest.approx(numpy, rel=1e-12)


class TestWeightedBincount:
    @pytest.mark.parametrize("backend", available_backends())
    def test_groups_and_preserves_first_appearance_order(self, backend):
        kernel = get_backend(backend)
        labels = ["linux", "bsd", "linux", "windows", "bsd", "linux"]
        weights = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        result = kernel.weighted_bincount(labels, weights)
        assert result == {"linux": 10.0, "bsd": 7.0, "windows": 4.0}
        assert list(result) == ["linux", "bsd", "windows"]

    @pytest.mark.parametrize("backend", available_backends())
    def test_empty_input_gives_empty_mapping(self, backend):
        assert get_backend(backend).weighted_bincount([], []) == {}

    @needs_numpy
    def test_backends_agree_on_large_random_input(self):
        rng = random.Random(3)
        labels = [f"component-{rng.randrange(40)}" for _ in range(5000)]
        weights = [rng.random() for _ in range(5000)]
        python = get_backend("python").weighted_bincount(labels, weights)
        numpy = get_backend("numpy").weighted_bincount(labels, weights)
        assert list(python) == list(numpy)
        for key in python:
            assert python[key] == pytest.approx(numpy[key], rel=1e-12)


class TestCampaignKernel:
    """The campaign kernels share a counter-based RNG: bit-identical results."""

    EXPOSURE = [
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [0.0, 0.0, 1.0],
    ]
    POWERS = [1.0, 2.0, 1.0, 4.0, 0.5]
    TOTAL = 8.5

    def _run(self, backend, probabilities, *, trials=400, seed=31):
        """One campaign over every column: a one-point grid."""
        kernel = get_backend(backend)
        point = ResolvedGridPoint(
            columns=tuple(range(len(probabilities))),
            probabilities=tuple(probabilities),
            tolerances=(1 / 3,),
            seed=seed,
        )
        (result,) = kernel.campaign_grid(
            kernel.asarray_matrix(self.EXPOSURE),
            kernel.asarray(self.POWERS),
            (point,),
            trials=trials,
            total_power=self.TOTAL,
        )
        return result

    @needs_numpy
    @pytest.mark.parametrize("probabilities", [
        [1.0, 1.0, 1.0],
        [0.5, 0.25, 0.75],
        [0.0, 1.0, 0.3],
    ])
    def test_backends_are_bit_identical(self, probabilities):
        assert self._run("python", probabilities) == self._run("numpy", probabilities)

    @needs_numpy
    def test_chunked_numpy_batches_match_the_scalar_loop(self):
        # Enough trials to force several NumPy blocks with a tiny block size.
        from repro.backend import numpy_backend

        original = numpy_backend._BLOCK_CELLS
        numpy_backend._BLOCK_CELLS = 45  # 4 trials of 10 exposed cells per block
        try:
            batched = self._run("numpy", [0.6, 0.4, 0.9], trials=100)
        finally:
            numpy_backend._BLOCK_CELLS = original
        assert batched == self._run("python", [0.6, 0.4, 0.9], trials=100)

    @pytest.mark.parametrize("backend", available_backends())
    def test_reliable_exploits_compromise_every_exposed_replica(self, backend):
        result = self._run(backend, [1.0, 1.0, 1.0], trials=10)
        # All replicas exposed to something: 8.5 power per trial.
        assert result.compromised_total == pytest.approx(85.0)
        assert result.violations == (10,)
        assert result.per_vulnerability_totals == pytest.approx((70.0, 70.0, 65.0))

    @pytest.mark.parametrize("backend", available_backends())
    def test_zero_probability_never_compromises(self, backend):
        result = self._run(backend, [0.0, 0.0, 0.0], trials=10)
        assert result.violations == (0,)
        assert result.compromised_total == 0.0
        assert result.per_vulnerability_totals == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("backend", available_backends())
    def test_masked_power_sums(self, backend):
        kernel = get_backend(backend)
        sums = kernel.masked_power_sums(
            kernel.asarray_matrix(self.EXPOSURE), kernel.asarray(self.POWERS)
        )
        assert sums == pytest.approx((7.0, 7.0, 6.5))

    @pytest.mark.parametrize("backend", available_backends())
    def test_masked_power_sums_rejects_shape_mismatch(self, backend):
        kernel = get_backend(backend)
        with pytest.raises(BackendError):
            kernel.masked_power_sums([[1.0], [1.0]], [5.0])

    @pytest.mark.parametrize("backend", available_backends())
    def test_campaign_validation(self, backend):
        kernel = get_backend(backend)

        def point(probability=0.5, tolerance=0.5):
            return ResolvedGridPoint(
                columns=(0,),
                probabilities=(probability,),
                tolerances=(tolerance,),
                seed=0,
            )

        with pytest.raises(BackendError):
            kernel.campaign_grid([], [], (point(),), trials=10, total_power=1.0)
        with pytest.raises(BackendError):
            kernel.campaign_grid(
                [[1.0]], [1.0], (point(1.5),), trials=10, total_power=1.0
            )
        with pytest.raises(BackendError):
            kernel.campaign_grid([[1.0]], [1.0], (point(),), trials=0, total_power=1.0)
        with pytest.raises(BackendError):
            kernel.campaign_grid(
                [[1.0]], [1.0], (point(tolerance=0.0),), trials=10, total_power=1.0
            )
        with pytest.raises(BackendError):
            kernel.campaign_grid(
                [[1.0, 0.0]], [1.0, 1.0], (point(),), trials=10, total_power=1.0
            )
        with pytest.raises(BackendError, match="trial offset"):
            kernel.campaign_grid(
                [[1.0]],
                [1.0],
                (point(),),
                trials=10,
                total_power=1.0,
                trial_offset=-1,
            )


class TestKernelValidation:
    @pytest.mark.parametrize("backend", available_backends())
    def test_invalid_arguments_raise_backend_error(self, backend):
        kernel = get_backend(backend)
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [], vulnerability_probability=0.5, exploit_budget=1, trials=10, seed=0, tolerance=0.5
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=1.5, exploit_budget=1, trials=10, seed=0, tolerance=0.5
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=0.5, exploit_budget=-1, trials=10, seed=0, tolerance=0.5
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=0.5, exploit_budget=1, trials=0, seed=0, tolerance=0.5
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=0.5, exploit_budget=1, trials=10, seed=0, tolerance=0.0
            )
        with pytest.raises(BackendError):
            # shares must arrive pre-sorted descending
            kernel.violation_trials(
                [0.2, 0.8], vulnerability_probability=0.5, exploit_budget=1, trials=10, seed=0, tolerance=0.5
            )
