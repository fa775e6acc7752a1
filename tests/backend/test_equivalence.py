"""Cross-backend equivalence tests.

The contract under test:

- each backend is bit-deterministic for a fixed seed (identical
  ``SafetyViolationEstimate`` on repeated runs);
- census trials read one counter stream, so every backend returns the
  contract's violation counts and mean compromised fractions bit for bit,
  and they agree with the closed-form
  ``analytic_single_vulnerability_violation`` check;
- ``ConfigurationDistribution.entropy`` is the one scalar entropy loop on
  every backend.
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
from repro.backend.base import ResolvedGridPoint, SparseExposure, campaign_uniform
from repro.backend.selection import use_backend
from repro.core.distribution import ConfigurationDistribution
from repro.core.entropy import shannon_entropy as reference_entropy
from repro.core.entropy import unchecked_shannon_entropy
from repro.core.exceptions import BackendError, DistributionError
from repro.datasets.bitcoin_pools import figure1_distribution
from repro.datasets.generators import (
    oligopoly_distribution,
    uniform_distribution,
    zipf_distribution,
)

from campaign_helpers import run_campaign

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


def contract_estimate(census, *, vulnerability_probability, exploit_budget, trials, seed, tolerance):
    """The census contract over the census's shares in descending order."""
    shares = sorted(census.probabilities(), reverse=True)
    per_trial = []
    for trial in range(trials):
        vulnerable = [
            share
            for index, share in enumerate(shares)
            if campaign_uniform(seed, trial * len(shares) + index)
            < vulnerability_probability
        ]
        compromised = 0.0
        for share in vulnerable[:exploit_budget]:
            compromised += share
        per_trial.append(compromised)
    violations = sum(compromised >= tolerance for compromised in per_trial)
    return violations, math.fsum(per_trial)


class TestEstimatesFollowTheCensusContract:
    @pytest.mark.parametrize("label", sorted(CENSUSES))
    @pytest.mark.parametrize("budget", [0, 1, 3, 1000])
    def test_estimate_is_the_contract_over_descending_shares(self, label, budget):
        # The estimate sorts the census's shares, so an attacker's first
        # picks are the largest vulnerable ones, whatever the census order.
        census = CENSUSES[label]
        arguments = dict(
            vulnerability_probability=0.3, exploit_budget=budget, trials=400, seed=11
        )
        for backend in available_backends():
            estimate = estimate_violation_probability(census, backend=backend, **arguments)
            violations, compromised_total = contract_estimate(
                census, tolerance=estimate.tolerated_fraction, **arguments
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
            vulnerability_probability=0.3, exploit_budget=budget, trials=50, seed=4, tolerances=(0.2,)
        )
        whole = NumpyBackend().violation_trials(shares, **kwargs)
        # 7 cells per block: at most 7 trials a block, one column at a time.
        monkeypatch.setattr(numpy_backend, "_CENSUS_BLOCK_CELLS", 7)
        chunked = NumpyBackend().violation_trials(shares, **kwargs)
        assert 0 < whole.violations[0] < 50
        assert chunked == whole

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


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("label", sorted(CENSUSES))
    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_estimates_are_bit_identical_across_backends(self, label, budget):
        census = CENSUSES[label]
        estimates = [
            estimate_violation_probability(
                census,
                vulnerability_probability=0.3,
                exploit_budget=budget,
                trials=6000,
                seed=17,
                backend=backend,
            )
            for backend in available_backends()
        ]
        assert all(estimate == estimates[0] for estimate in estimates)

    @pytest.mark.parametrize("backend", available_backends())
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

    def test_three_exploits_on_a_long_tail_agree_exactly(self):
        # Three exploits sometimes reach 1/3 on Zipf(1.2) over 1,000
        # configurations, but rarely, and every backend sees the same trials.
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
        assert 0.0 < estimates[0].violation_probability < 0.5
        assert all(estimate == estimates[0] for estimate in estimates)


def _distribution_entropy(probabilities, *, base=2.0):
    shares = {f"c{index}": share for index, share in enumerate(probabilities)}
    return ConfigurationDistribution(shares).entropy(base=base)


#: The entropy's entry points: validated, unvalidated, and memoized on a
#: distribution.  All three run the one loop.
ENTROPY_ENTRY_POINTS = {
    "shannon_entropy": reference_entropy,
    "unchecked_shannon_entropy": unchecked_shannon_entropy,
    "distribution": _distribution_entropy,
}


class TestOneEntropy:
    """``ConfigurationDistribution.entropy`` is the scalar loop on every backend."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_distribution_entropy_equals_the_validated_function(self, backend):
        rng = random.Random(8)
        censuses = [figure1_distribution(101)]
        for _ in range(20):
            # Few distinct weights, so shares repeat (the log memo's case).
            pool = [rng.random() for _ in range(rng.randint(1, 6))]
            censuses.append(
                ConfigurationDistribution(
                    {f"c{i}": rng.choice(pool) for i in range(rng.randint(1, 300))}
                )
            )
        with use_backend(backend):
            for census in censuses:
                for base in (2.0, math.e, 10.0):
                    assert repr(census.entropy(base=base)) == repr(
                        reference_entropy(census.probabilities(), base=base)
                    )

    @pytest.mark.parametrize("entry", sorted(ENTROPY_ENTRY_POINTS))
    def test_matches_reference_entropy(self, entry):
        entropy = ENTROPY_ENTRY_POINTS[entry]
        assert entropy([0.25, 0.25, 0.25, 0.25]) == 2.0
        assert entropy([1.0]) == 0.0
        assert entropy([0.5, 0.5, 0.0]) == 1.0

    @pytest.mark.parametrize("entry", sorted(ENTROPY_ENTRY_POINTS))
    def test_log_base_sets_the_unit(self, entry):
        entropy = ENTROPY_ENTRY_POINTS[entry]
        assert entropy([0.5, 0.5], base=4.0) == 0.5
        assert entropy([0.5, 0.5], base=math.e) == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("entry", sorted(ENTROPY_ENTRY_POINTS))
    def test_degenerate_log_base_is_rejected(self, entry):
        entropy = ENTROPY_ENTRY_POINTS[entry]
        for base in (1.0, 0.0, -2.0):
            for probabilities in ([0.5, 0.5], [1.0], [0.2, 0.8]):
                with pytest.raises(
                    DistributionError, match="base must be positive and != 1"
                ):
                    entropy(probabilities, base=base)

    def test_unchecked_loop_rejects_a_degenerate_base_before_any_term(self):
        for base in (1.0, 0.0, -2.0):
            for probabilities in ([], [0.0], [0.0, 0.0]):
                with pytest.raises(
                    DistributionError, match="base must be positive and != 1"
                ):
                    unchecked_shannon_entropy(probabilities, base=base)

    def test_empty_and_all_zero_vectors_have_zero_entropy(self):
        # The unvalidated loop: no positive entry means no term.
        assert unchecked_shannon_entropy([]) == 0.0
        assert unchecked_shannon_entropy([0.0, 0.0]) == 0.0


class TestCampaignKernel:
    """The campaign kernel's counter-based RNG: bit-identical results.

    The dense 0/1 matrix below reaches the kernel through
    :meth:`SparseExposure.from_dense`.
    """

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
        (result,) = run_campaign(
            kernel,
            SparseExposure.from_dense(self.EXPOSURE, self.POWERS, probabilities),
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
        sums = kernel.sparse_masked_power_sums(
            SparseExposure.from_dense(self.EXPOSURE, self.POWERS, (0.5,) * 3)
        )
        assert sums == pytest.approx((7.0, 7.0, 6.5))

    @pytest.mark.parametrize("backend", available_backends())
    def test_masked_power_sums_rejects_shape_mismatch(self, backend):
        kernel = get_backend(backend)
        mismatched = SparseExposure(
            indptr=(0, 1, 2), indices=(0, 0), powers=(5.0,),
            success_probabilities=(0.5,), disclosed_at=(0.0,),
        )
        with pytest.raises(BackendError, match="1 powers for 2 replicas"):
            kernel.sparse_masked_power_sums(mismatched)

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

        def run(rows, powers, points, **kwargs):
            sparse = SparseExposure.from_dense(rows, powers, (0.5,))
            return run_campaign(kernel, sparse, points, total_power=1.0, **kwargs)

        with pytest.raises(BackendError, match="at least one replica"):
            run([], [], (point(),), trials=10)
        with pytest.raises(BackendError):
            run([[1.0]], [1.0], (point(1.5),), trials=10)
        with pytest.raises(BackendError):
            run([[1.0]], [1.0], (point(),), trials=0)
        with pytest.raises(BackendError):
            run([[1.0]], [1.0], (point(tolerance=0.0),), trials=10)
        with pytest.raises(BackendError):
            run([[1.0, 0.0]], [1.0, 1.0], (point(),), trials=10)
        with pytest.raises(BackendError, match="trial offset"):
            run([[1.0]], [1.0], (point(),), trials=10, trial_offset=-1)


class TestCensusTolerances:
    """One census draw judges every tolerance of the call."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("budget", [0, 1, 3])
    @pytest.mark.parametrize(
        "label", sorted(CENSUSES) + ["between-the-tolerances"]
    )
    def test_two_tolerances_equal_two_single_tolerance_calls(self, backend, budget, label):
        kernel = get_backend(backend)
        census = CENSUSES.get(
            label, ConfigurationDistribution({"a": 0.4, "b": 0.35, "c": 0.25})
        )
        shares = sorted(census.probabilities(), reverse=True)
        kwargs = dict(
            vulnerability_probability=0.3, exploit_budget=budget, trials=300, seed=5
        )
        both = kernel.violation_trials(shares, tolerances=(1 / 3, 1 / 2), **kwargs)
        bft = kernel.violation_trials(shares, tolerances=(1 / 3,), **kwargs)
        majority = kernel.violation_trials(shares, tolerances=(1 / 2,), **kwargs)
        assert both.trials == bft.trials == majority.trials == 300
        assert both.violations == bft.violations + majority.violations
        assert both.compromised_total == bft.compromised_total
        assert both.compromised_total == majority.compromised_total
        if label == "between-the-tolerances" and budget == 1:
            # The largest share (0.4) reaches 1/3 but never 1/2: the two
            # tolerances judge the same draws differently.
            assert both.violations[0] > 0 == both.violations[1]

    @pytest.mark.parametrize("backend", available_backends())
    def test_tolerances_are_validated(self, backend):
        kernel = get_backend(backend)
        kwargs = dict(vulnerability_probability=0.5, exploit_budget=1, trials=10, seed=0)
        with pytest.raises(BackendError, match="at least one tolerance"):
            kernel.violation_trials([1.0], tolerances=(), **kwargs)
        for bad in ((0.5, 0.0), (float("nan"),), (1.5,)):
            with pytest.raises(BackendError, match="tolerance must be in"):
                kernel.violation_trials([1.0], tolerances=bad, **kwargs)


class TestKernelValidation:
    @pytest.mark.parametrize("backend", available_backends())
    def test_invalid_arguments_raise_backend_error(self, backend):
        kernel = get_backend(backend)
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [], vulnerability_probability=0.5, exploit_budget=1, trials=10, seed=0, tolerances=(0.5,)
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=1.5, exploit_budget=1, trials=10, seed=0, tolerances=(0.5,)
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=0.5, exploit_budget=-1, trials=10, seed=0, tolerances=(0.5,)
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=0.5, exploit_budget=1, trials=0, seed=0, tolerances=(0.5,)
            )
        with pytest.raises(BackendError):
            kernel.violation_trials(
                [1.0], vulnerability_probability=0.5, exploit_budget=1, trials=10, seed=0, tolerances=(0.0,)
            )
        with pytest.raises(BackendError):
            # shares must arrive pre-sorted descending
            kernel.violation_trials(
                [0.2, 0.8], vulnerability_probability=0.5, exploit_budget=1, trials=10, seed=0, tolerances=(0.5,)
            )
