"""Monte-Carlo estimation of safety-violation probability.

The Section II-C condition is deterministic once the compromised powers are
known; what is *not* deterministic in practice is which components turn out
to harbor exploitable vulnerabilities during a given window.  The estimator
here samples that uncertainty: in each trial, every distinct component (or
configuration) independently turns out vulnerable with a given probability,
the attacker exploits the ``m`` most damaging of the vulnerable ones, and the
trial records whether the compromised power exceeds the protocol's tolerance.

Running the estimator across populations with different census entropy makes
the paper's core claim quantitative: the probability that a small number of
shared faults violates safety falls as diversity (entropy) rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence, Tuple

from repro.analysis.sweep import mapping_sweep
from repro.backend import get_backend
from repro.backend.selection import BackendLike
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import AnalysisError
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction
from repro.faults.engine import run_census_trials


@dataclass(frozen=True)
class SafetyViolationEstimate:
    """Result of a Monte-Carlo safety estimation.

    Attributes:
        trials: number of sampled vulnerability scenarios.
        violations: scenarios in which compromised power reached the tolerance.
        violation_probability: ``violations / trials``.
        mean_compromised_fraction: mean compromised power fraction per trial.
        tolerated_fraction: the protocol tolerance used for the verdicts.
    """

    trials: int
    violations: int
    violation_probability: float
    mean_compromised_fraction: float
    tolerated_fraction: float


def estimate_violation_probability(
    census: ConfigurationDistribution,
    *,
    family: ProtocolFamily = ProtocolFamily.BFT,
    vulnerability_probability: float = 0.2,
    exploit_budget: int = 1,
    trials: int = 1000,
    seed: int = 0,
    tolerated_fraction: Optional[float] = None,
    backend: BackendLike = None,
) -> SafetyViolationEstimate:
    """Estimate the probability that shared vulnerabilities violate safety.

    Args:
        census: the configuration distribution of voting power.  Each
            configuration is one independent fault domain (the paper's
            best-case assumption); its share is the power lost if it turns out
            vulnerable and is exploited.
        family: protocol family providing the tolerance (1/3 BFT, 1/2 hybrid
            and Nakamoto).
        vulnerability_probability: probability that any given configuration
            has an exploitable vulnerability during the window.
        exploit_budget: how many vulnerable configurations the attacker can
            exploit simultaneously (it greedily picks the largest shares).
        trials: Monte-Carlo sample count.
        seed: seed of the census stream.  Results are a pure function of
            the arguments: every backend returns the same bits.
        tolerated_fraction: explicit tolerance override (otherwise derived
            from ``family``).
        backend: compute backend name ("python", "numpy", "auto"), instance,
            or ``None`` to use :func:`repro.backend.get_backend` resolution
            (default / ``REPRO_BACKEND`` / auto-detect).
    """
    tolerance = (
        tolerated_fraction
        if tolerated_fraction is not None
        else tolerated_fault_fraction(family)
    )
    (estimate,) = estimate_violation_probabilities(
        census,
        tolerated_fractions=(tolerance,),
        vulnerability_probability=vulnerability_probability,
        exploit_budget=exploit_budget,
        trials=trials,
        seed=seed,
        backend=backend,
    )
    return estimate


def estimate_violation_probabilities(
    census: ConfigurationDistribution,
    *,
    tolerated_fractions: Sequence[float],
    vulnerability_probability: float = 0.2,
    exploit_budget: int = 1,
    trials: int = 1000,
    seed: int = 0,
    backend: BackendLike = None,
) -> Tuple[SafetyViolationEstimate, ...]:
    """One :class:`SafetyViolationEstimate` per tolerance, from one census draw.

    Every tolerance judges the same sampled trials, so the estimates equal
    separate :func:`estimate_violation_probability` calls at the same seed
    while the census is drawn once.  Arguments are as there.
    """
    if not 0.0 <= vulnerability_probability <= 1.0:
        raise AnalysisError(
            f"vulnerability probability must be in [0, 1], got {vulnerability_probability}"
        )
    if exploit_budget < 0:
        raise AnalysisError(f"exploit budget must be non-negative, got {exploit_budget}")
    if trials <= 0:
        raise AnalysisError(f"trial count must be positive, got {trials}")
    if not tolerated_fractions:
        raise AnalysisError("at least one tolerated fraction is required")
    for tolerance in tolerated_fractions:
        if not 0.0 < tolerance <= 1.0:
            raise AnalysisError(
                f"tolerated fraction must be in (0, 1], got {tolerance}"
            )

    batch = run_census_trials(
        census,
        vulnerability_probability=vulnerability_probability,
        exploit_budget=exploit_budget,
        trials=trials,
        seed=seed,
        tolerances=tolerated_fractions,
        backend=backend,
    )
    return tuple(
        SafetyViolationEstimate(
            trials=batch.trials,
            violations=violations,
            violation_probability=violations / batch.trials,
            mean_compromised_fraction=batch.compromised_total / batch.trials,
            tolerated_fraction=tolerance,
        )
        for tolerance, violations in zip(tolerated_fractions, batch.violations)
    )


def violation_probability_by_entropy(
    censuses: Mapping[Hashable, ConfigurationDistribution],
    *,
    family: ProtocolFamily = ProtocolFamily.BFT,
    vulnerability_probability: float = 0.2,
    exploit_budget: int = 1,
    trials: int = 1000,
    seed: int = 0,
    backend: BackendLike = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> Tuple[Tuple[Hashable, float, float], ...]:
    """Estimate violation probability for several censuses at once.

    Returns ``(label, entropy_bits, violation_probability)`` tuples sorted by
    entropy, which is the series the safety-violation experiment reports.

    Each census gets its own deterministic seed (``seed + index`` over the
    mapping's iteration order), so with ``parallel=True`` the points are
    fanned out over a thread pool and the result is identical to the serial
    run regardless of scheduling.
    """
    if not censuses:
        raise AnalysisError("at least one census is required")
    resolved = get_backend(backend)

    def estimate_point(index: int, label: Hashable, census: ConfigurationDistribution):
        estimate = estimate_violation_probability(
            census,
            family=family,
            vulnerability_probability=vulnerability_probability,
            exploit_budget=exploit_budget,
            trials=trials,
            seed=seed + index,
            backend=resolved,
        )
        return (label, census.entropy(), estimate.violation_probability)

    rows = mapping_sweep(
        censuses, estimate_point, parallel=parallel, max_workers=max_workers
    )
    rows.sort(key=lambda row: row[1])
    return tuple(rows)


def analytic_single_vulnerability_violation(
    census: ConfigurationDistribution,
    *,
    vulnerability_probability: float,
    tolerated_fraction: float,
) -> float:
    """Closed-form check for the ``exploit_budget = 1`` case.

    With one exploit, safety is violated exactly when at least one
    configuration whose share reaches the tolerance turns out vulnerable, so
    the probability is ``1 - (1 - p)^c`` where ``c`` counts configurations at
    or above the tolerance.  Used to validate the Monte-Carlo estimator.
    """
    if not 0.0 <= vulnerability_probability <= 1.0:
        raise AnalysisError(
            f"vulnerability probability must be in [0, 1], got {vulnerability_probability}"
        )
    if not 0.0 < tolerated_fraction <= 1.0:
        raise AnalysisError(
            f"tolerated fraction must be in (0, 1], got {tolerated_fraction}"
        )
    critical = sum(1 for share in census.probabilities() if share >= tolerated_fraction)
    return 1.0 - (1.0 - vulnerability_probability) ** critical
