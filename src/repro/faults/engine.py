"""Batched exploit-campaign trials on the compute-backend seam.

The scalar :class:`~repro.faults.campaign.ExploitCampaign` resolves *one*
campaign at a time with per-replica Python loops.  The
:class:`GridCampaignEngine` runs **thousands** of randomized campaigns at
every point of a scenario grid in as few backend kernel calls as the chunk
limits allow: every trial independently re-samples which exploit attempts
succeed, and the kernels reduce the whole batch to violation counts, mean
compromised fractions and mean per-vulnerability compromised power
(``f_t^i``).

All campaign work takes one path through the engine, whether it is one
campaign or a grid, and whatever layout the matrix was built with:

1. :meth:`GridCampaignEngine._plan_grid` validates the requests and picks
   each point's targets (worst-case targets through
   :meth:`PopulationMatrix.most_damaging`, then the disclosure gate);
2. :func:`_resolve_plan_points` turns the exploitable points into
   :class:`~repro.backend.base.ResolvedGridPoint` (explicit columns,
   probabilities and seed);
3. :func:`_run_points` runs them on the matrix's CSR view through the one
   kernel, ``sparse_grid_partials``: trial chunks of at most
   :data:`GRID_CHUNK_TRIAL_POINTS` trials × points, each over
   ``chunk_rows`` row chunks whose partials merge before the backend takes
   the verdicts.  Fanning a call's trial range out over processes is a
   backend's business (the ``shm`` backend's kernel pool), never the
   engine's;
4. :meth:`GridCampaignEngine._finalize_grid` reduces the merged kernel
   results to :class:`GridPointEstimate` values.

A single campaign (:meth:`GridCampaignEngine.estimate`,
:meth:`GridCampaignEngine.estimate_worst_case`) is a one-request grid.

Because the kernels draw from a counter-based RNG stream
(:func:`repro.backend.base.campaign_uniform`), every backend produces
**identical** estimates for the same seed.

The engine also hosts the census-mode seam (:func:`run_census_trials`) the
violation-probability estimator of :mod:`repro.analysis.monte_carlo` now
routes through, so every batched trial workload in the repository enters the
backends from one module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.backend import get_backend
from repro.backend.base import (
    GridPointResult,
    ResolvedGridPoint,
    SparseExposure,
    TrialBatchResult,
    finalize_sparse_point,  # noqa: F401 - perfbench/workloads.py:56 wraps it by name
    merge_campaign_grid_batches,
    merge_sparse_partials,
)
from repro.backend.selection import BackendLike
from repro.backend.timing import timed_kernel
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction
from repro.faults.campaign import reject_duplicate_vulnerability_ids
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.matrix import PopulationMatrix


#: Default replica-range chunk: the engine never hands a backend more than
#: this many CSR rows per kernel call, so peak working memory is bounded by
#: the chunk, not the population.  The stream contract's global row counter
#: makes chunk boundaries invisible — chunked results equal unchunked
#: results bit for bit (dyadic-power caveat on the float totals, exact for
#: every shipped scenario).
DEFAULT_CAMPAIGN_CHUNK_ROWS = 1 << 18

#: Bound on trials × grid points per kernel call.  A call returns one
#: per-trial compromised sum per trial and point (8 bytes each on NumPy, so
#: 8 MiB at this bound), and every row chunk's sums are held until they
#: merge; larger grids split the trial range into chunks under the bound,
#: invisibly to results (``trial_offset`` pins each chunk's slice of the
#: counter stream).
GRID_CHUNK_TRIAL_POINTS = 1 << 20


@dataclass(frozen=True)
class CampaignEstimate:
    """Aggregate result of a batch of randomized exploit campaigns.

    Attributes:
        exploited: vulnerability ids actually exploited (disclosure-gated).
        trials: number of campaign trials sampled.
        violations: trials whose compromised fraction reached the tolerance.
        violation_probability: ``violations / trials``.
        mean_compromised_fraction: mean compromised power fraction per trial.
        tolerated_fraction: the tolerance the verdicts used.
        total_power: the population's total voting power ``n_t``.
        mean_power_per_vulnerability: mean ``f_t^i`` per exploited
            vulnerability (id, power) in id order; disclosure-gated
            vulnerabilities appear with 0.0, mirroring
            ``CampaignOutcome.power_per_vulnerability``.
    """

    exploited: Tuple[str, ...]
    trials: int
    violations: int
    violation_probability: float
    mean_compromised_fraction: float
    tolerated_fraction: float
    total_power: float
    mean_power_per_vulnerability: Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class GridPointRequest:
    """One engine-level grid point: targets, verdicts and per-point knobs.

    Attributes:
        tolerances: compromised-power fractions evaluated as verdicts on the
            same sampled trials (a BFT/majority pair costs one exploit draw).
        vulnerability_ids: explicit catalog ids to exploit, in selection
            order (mutually exclusive with ``worst_case``).
        worst_case: exploit the ``worst_case`` most damaging vulnerabilities
            (greedy by exposed power, id tie-break — the selection of
            ``ExploitCampaign.run_worst_case``).
        success_probability: override every exploited vulnerability's
            success probability at this point (how a reliability sweep
            varies one knob without re-cataloging).
        seed_offset: the point's RNG seed is ``grid seed + seed_offset``;
            matching the per-point ``seed + index`` convention of the looped
            sweeps keeps grid results bit-identical to them.
    """

    tolerances: Tuple[float, ...]
    vulnerability_ids: Optional[Tuple[str, ...]] = None
    worst_case: Optional[int] = None
    success_probability: Optional[float] = None
    seed_offset: int = 0


@dataclass(frozen=True)
class _GridPlan:
    """A validated grid point: requested ids, gated targets, matrix columns."""

    ids: Tuple[str, ...]
    exploited: Tuple[str, ...]
    columns: Tuple[int, ...]
    tolerances: Tuple[float, ...]
    success_probability: Optional[float]
    seed_offset: int


@dataclass(frozen=True)
class GridPointEstimate:
    """One grid point's estimates at every requested tolerance.

    The per-draw quantities (``mean_compromised_fraction``,
    ``mean_power_per_vulnerability``) are tolerance-independent — all
    tolerances judge the same sampled campaigns.
    """

    ids: Tuple[str, ...]
    exploited: Tuple[str, ...]
    trials: int
    tolerances: Tuple[float, ...]
    violations: Tuple[int, ...]
    violation_probabilities: Tuple[float, ...]
    mean_compromised_fraction: float
    total_power: float
    mean_power_per_vulnerability: Tuple[Tuple[str, float], ...]

    def estimate_at(self, index: int) -> CampaignEstimate:
        """This point's verdict at ``tolerances[index]`` as a :class:`CampaignEstimate`.

        Field-for-field what :meth:`GridCampaignEngine.estimate` returns for
        the same targets, seed and tolerance — the adapter the sweep
        experiments build their rows from.
        """
        return CampaignEstimate(
            exploited=self.exploited,
            trials=self.trials,
            violations=self.violations[index],
            violation_probability=self.violation_probabilities[index],
            mean_compromised_fraction=self.mean_compromised_fraction,
            tolerated_fraction=self.tolerances[index],
            total_power=self.total_power,
            mean_power_per_vulnerability=self.mean_power_per_vulnerability,
        )


def _resolve_plan_points(
    matrix: PopulationMatrix,
    plans: Sequence[_GridPlan],
    seed: int,
) -> Tuple[ResolvedGridPoint, ...]:
    """Turn the exploitable plans into the kernels' resolved points.

    Matrix-wide probabilities unless the plan overrides them, per-point seed
    ``seed + seed_offset``; plans with nothing exploitable have no point.
    """
    probabilities = matrix.success_probabilities
    return tuple(
        ResolvedGridPoint(
            columns=plan.columns,
            probabilities=(
                (float(plan.success_probability),) * len(plan.columns)
                if plan.success_probability is not None
                else tuple(probabilities[column] for column in plan.columns)
            ),
            tolerances=plan.tolerances,
            seed=seed + plan.seed_offset,
        )
        for plan in plans
        if plan.exploited
    )


def _run_points(
    backend,
    sparse: SparseExposure,
    points: Sequence[ResolvedGridPoint],
    *,
    trials: int,
    total_power: float,
    chunk_rows: int,
) -> Tuple[Tuple[GridPointResult, ...], int]:
    """Evaluate resolved points on the CSR kernel: ``(results, chunks)``.

    The trial range splits into chunks of at most
    :data:`GRID_CHUNK_TRIAL_POINTS` trials × points, ``trial_offset``
    pinning each chunk's slice of the counter stream.  Within a trial
    chunk the rows split into ``chunk_rows`` ranges (each drawing its slice
    via ``row_offset`` and ``total_rows``) whose partial sums merge in
    ascending row order; only then does the backend take the per-trial
    verdicts — a trial's compromised fraction couples all rows.  ``chunks``
    counts kernel calls: trial chunks × row chunks.
    """
    total_rows = sparse.replica_count
    chunk_trials = max(1, GRID_CHUNK_TRIAL_POINTS // len(points))
    batches, calls = [], 0
    for offset in range(0, trials, chunk_trials):
        count = min(chunk_trials, trials - offset)
        partials = []
        for start in range(0, total_rows, chunk_rows):
            stop = min(start + chunk_rows, total_rows)
            piece = (
                sparse if stop - start == total_rows else sparse.row_slice(start, stop)
            )
            with timed_kernel("campaign_grid", trials=count * len(points)):
                partials.append(
                    backend.sparse_grid_partials(
                        piece,
                        points,
                        trials=count,
                        trial_offset=offset,
                        row_offset=start,
                        total_rows=total_rows,
                    )
                )
        calls += len(partials)
        batches.append(
            backend.campaign_verdicts(
                merge_sparse_partials(partials),
                points,
                trials=count,
                total_power=total_power,
            )
        )
    return merge_campaign_grid_batches(batches), calls


class GridCampaignEngine:
    """Runs randomized exploit campaigns — single or gridded — over a matrix.

    A grid (:meth:`estimate_grid`) stages the shared exposure once and hands
    the backend every point in one kernel call per chunk: trials × points,
    multi-tolerance verdicts on shared draws, and per-point counter-based
    sub-streams, so each point is bit-identical to running it on its own.
    :meth:`estimate` and :meth:`estimate_worst_case` are one-request grids.

    Every matrix runs on its CSR view, trial-chunked under
    :data:`GRID_CHUNK_TRIAL_POINTS` and row-chunked in ``chunk_rows``
    replica ranges; the counter stream makes chunk boundaries invisible to
    every number.
    """

    def __init__(
        self,
        population: Optional[ReplicaPopulation],
        catalog: Optional[VulnerabilityCatalog],
        *,
        backend: BackendLike = None,
        matrix: Optional[PopulationMatrix] = None,
        chunk_rows: int = DEFAULT_CAMPAIGN_CHUNK_ROWS,
    ) -> None:
        if chunk_rows <= 0:
            raise FaultModelError(
                f"chunk row count must be positive, got {chunk_rows}"
            )
        if matrix is None:
            if population is None or catalog is None:
                raise FaultModelError(
                    "an engine without a population and catalog needs an "
                    "explicit matrix; use from_matrix()"
                )
            matrix = PopulationMatrix.build(population, catalog)
        self._population = population
        self._catalog = catalog
        self._backend = backend
        self._matrix = matrix
        self._chunk_rows = chunk_rows
        self._last_chunk_count = 0

    @classmethod
    def from_matrix(
        cls,
        matrix: PopulationMatrix,
        *,
        backend: BackendLike = None,
        chunk_rows: int = DEFAULT_CAMPAIGN_CHUNK_ROWS,
    ) -> "GridCampaignEngine":
        """Engine over a pre-built matrix (e.g. a streamed sparse build).

        Matrices built from replica chunks have no live population or
        catalog object; planning falls back to the matrix's own
        vulnerability vectors, and results are identical to an engine built
        from the originating population/catalog pair.
        """
        return cls(
            None,
            None,
            backend=backend,
            matrix=matrix,
            chunk_rows=chunk_rows,
        )

    def _catalog_size(self) -> int:
        """Vulnerability count for validation messages (catalog may be absent)."""
        if self._catalog is not None:
            return len(self._catalog)
        return self._matrix.vulnerability_count

    @property
    def matrix(self) -> PopulationMatrix:
        return self._matrix

    @property
    def last_chunk_count(self) -> int:
        """How many kernel calls the most recent :meth:`estimate_grid` made.

        Trial chunks × replica-range chunks: the count of kernel passes over
        the grid.
        """
        return self._last_chunk_count

    # -- single campaigns ---------------------------------------------------------

    def estimate(
        self,
        vulnerability_ids: Optional[Sequence[str]] = None,
        *,
        trials: int,
        seed: int = 0,
        family: ProtocolFamily = ProtocolFamily.BFT,
        tolerated_fraction: Optional[float] = None,
        time: Optional[float] = None,
    ) -> CampaignEstimate:
        """Sample ``trials`` randomized campaigns over the given vulnerabilities.

        Args:
            vulnerability_ids: catalog ids to exploit in every trial
                (defaults to the whole catalog).  Duplicates are a usage
                error — they would double-count exploit attempts.
            trials: number of campaigns to sample (positive).
            seed: counter-based RNG seed; identical across backends.
            family: protocol family providing the tolerance.
            tolerated_fraction: explicit tolerance override.
            time: optional simulation time; vulnerabilities not yet disclosed
                at ``time`` are skipped (reported with mean ``f_t^i`` 0.0).
        """
        ids = (
            self._matrix.vulnerability_ids
            if vulnerability_ids is None
            else tuple(vulnerability_ids)
        )
        request = GridPointRequest(
            tolerances=(_tolerance(family, tolerated_fraction),),
            vulnerability_ids=ids,
        )
        (point,) = self.estimate_grid((request,), trials=trials, seed=seed, time=time)
        return point.estimate_at(0)

    def estimate_worst_case(
        self,
        *,
        max_vulnerabilities: int = 1,
        trials: int,
        seed: int = 0,
        family: ProtocolFamily = ProtocolFamily.BFT,
        tolerated_fraction: Optional[float] = None,
        time: Optional[float] = None,
    ) -> CampaignEstimate:
        """Batched trials against the ``max_vulnerabilities`` biggest exposures.

        Target selection matches ``ExploitCampaign.run_worst_case`` (greedy
        by exposed power, id tie-break); only the per-trial exploit outcomes
        are randomized.
        """
        if max_vulnerabilities <= 0:
            raise FaultModelError(
                f"max vulnerabilities must be positive, got {max_vulnerabilities}"
            )
        request = GridPointRequest(
            tolerances=(_tolerance(family, tolerated_fraction),),
            worst_case=max_vulnerabilities,
        )
        (point,) = self.estimate_grid((request,), trials=trials, seed=seed, time=time)
        return point.estimate_at(0)

    # -- grids --------------------------------------------------------------------

    def estimate_grid(
        self,
        requests: Sequence[GridPointRequest],
        *,
        trials: int,
        seed: int = 0,
        time: Optional[float] = None,
    ) -> Tuple[GridPointEstimate, ...]:
        """Estimate every grid point's violation probabilities in one sweep.

        Args:
            requests: the grid points (validated; an empty grid, duplicate
                ids within a point, or out-of-range parameters raise
                :class:`FaultModelError`).
            trials: campaigns sampled per point (positive).
            seed: grid-level RNG seed; point ``i`` draws from
                ``seed + requests[i].seed_offset``.
            time: disclosure gate applied to target selection and
                exploitability, as in :meth:`estimate`.
        """
        plans = self._plan_grid(requests, trials=trials, time=time)
        points = _resolve_plan_points(self._matrix, plans, seed)
        merged: Optional[Tuple[GridPointResult, ...]] = None
        self._last_chunk_count = 0
        if points:
            merged, self._last_chunk_count = _run_points(
                get_backend(self._backend),
                self._matrix.sparse_exposure(),
                points,
                trials=trials,
                total_power=self._matrix.total_power,
                chunk_rows=self._chunk_rows,
            )
        return self._finalize_grid(plans, trials, merged)

    # -- internals ---------------------------------------------------------------

    def _plan_grid(
        self,
        requests: Sequence[GridPointRequest],
        *,
        trials: int,
        time: Optional[float],
    ) -> Tuple[_GridPlan, ...]:
        if trials <= 0:
            raise FaultModelError(f"trial count must be positive, got {trials}")
        total_power = self._matrix.total_power
        if not (math.isfinite(total_power) and total_power > 0):
            raise FaultModelError(
                f"total power must be positive and finite, got {total_power}"
            )
        if not requests:
            raise FaultModelError(
                "a campaign grid needs at least one point — an empty grid is "
                "a usage error, not an empty result"
            )
        plans = []
        for position, request in enumerate(requests):
            where = f"grid point #{position}"
            if not request.tolerances:
                raise FaultModelError(f"{where} has no tolerances")
            for tolerance in request.tolerances:
                if not 0.0 < tolerance <= 1.0:  # also rejects NaN
                    raise FaultModelError(
                        f"{where}: tolerated fraction must be in (0, 1], "
                        f"got {tolerance}"
                    )
            if (request.vulnerability_ids is None) == (request.worst_case is None):
                raise FaultModelError(
                    f"{where} must set exactly one of vulnerability_ids= or "
                    "worst_case="
                )
            if request.success_probability is not None and not (
                0.0 <= request.success_probability <= 1.0
            ):
                raise FaultModelError(
                    f"{where}: success probability must be in [0, 1], got "
                    f"{request.success_probability}"
                )
            if request.seed_offset < 0:
                raise FaultModelError(
                    f"{where}: seed offset must be non-negative, got "
                    f"{request.seed_offset}"
                )
            if request.worst_case is not None:
                if request.worst_case <= 0:
                    raise FaultModelError(
                        f"{where}: worst_case must be positive, got "
                        f"{request.worst_case}"
                    )
                if self._catalog_size() == 0:
                    raise FaultModelError(
                        "the catalog is empty; nothing to exploit"
                    )
                ids = tuple(
                    vuln_id
                    for vuln_id, _ in self._matrix.most_damaging(
                        request.worst_case, backend=self._backend, time=time
                    )
                )
            else:
                ids = tuple(request.vulnerability_ids)
                if not ids:
                    raise FaultModelError(
                        f"{where} selects no vulnerabilities; a campaign "
                        "needs at least one vulnerability"
                        if self._catalog_size()
                        else "the catalog is empty; nothing to exploit"
                    )
                reject_duplicate_vulnerability_ids(ids)
            exploited = tuple(
                vuln_id
                for vuln_id in ids
                if self._matrix.is_exploitable_at(vuln_id, time)
            )
            plans.append(
                _GridPlan(
                    ids=ids,
                    exploited=exploited,
                    columns=tuple(
                        self._matrix.vulnerability_index(vuln_id)
                        for vuln_id in exploited
                    ),
                    tolerances=tuple(request.tolerances),
                    success_probability=request.success_probability,
                    seed_offset=request.seed_offset,
                )
            )
        return tuple(plans)

    def _finalize_grid(
        self,
        plans: Sequence[_GridPlan],
        trials: int,
        merged: Optional[Sequence[GridPointResult]],
    ) -> Tuple[GridPointEstimate, ...]:
        results = iter(merged) if merged is not None else iter(())
        estimates = []
        total_power = self._matrix.total_power
        for plan in plans:
            per_vulnerability: Dict[str, float] = {
                vuln_id: 0.0 for vuln_id in plan.ids
            }
            violations: Tuple[int, ...] = (0,) * len(plan.tolerances)
            compromised_total = 0.0
            if plan.exploited:
                point = next(results)
                violations = point.violations
                compromised_total = point.compromised_total
                for vuln_id, total in zip(
                    plan.exploited, point.per_vulnerability_totals
                ):
                    per_vulnerability[vuln_id] = total / trials
            estimates.append(
                GridPointEstimate(
                    ids=plan.ids,
                    exploited=plan.exploited,
                    trials=trials,
                    tolerances=plan.tolerances,
                    violations=violations,
                    violation_probabilities=tuple(
                        count / trials for count in violations
                    ),
                    mean_compromised_fraction=compromised_total
                    / (trials * total_power),
                    total_power=total_power,
                    mean_power_per_vulnerability=tuple(
                        sorted(per_vulnerability.items())
                    ),
                )
            )
        return tuple(estimates)


#: The single-campaign name of the engine: :meth:`GridCampaignEngine.estimate`
#: and :meth:`GridCampaignEngine.estimate_worst_case` are one-request grids.
BatchCampaignEngine = GridCampaignEngine


def _tolerance(
    family: ProtocolFamily, tolerated_fraction: Optional[float]
) -> float:
    """The explicit tolerance override, else the family's tolerated fraction."""
    if tolerated_fraction is not None:
        return tolerated_fraction
    return tolerated_fault_fraction(family)


def run_census_trials(
    census: ConfigurationDistribution,
    *,
    vulnerability_probability: float,
    exploit_budget: int,
    trials: int,
    seed: int,
    tolerances: Sequence[float],
    backend: BackendLike = None,
) -> TrialBatchResult:
    """Census-mode batched trials.

    Treats every configuration as one independent fault domain and exploits
    the ``exploit_budget`` largest vulnerable shares per trial — the
    estimator :mod:`repro.analysis.monte_carlo` wraps.  Every tolerance is
    judged on one draw (``violations`` is aligned with ``tolerances``), so a
    BFT/majority pair at one seed costs one kernel call.  The trials read
    the counter stream :func:`~repro.backend.base.campaign_uniform` at
    ``trial * len(census) + configuration`` over the descending shares, so
    the result is bit-identical on every backend (see
    :meth:`~repro.backend.base.ComputeBackend.violation_trials`).
    """
    resolved = get_backend(backend)
    with timed_kernel("violation_trials", trials=trials):
        return resolved.violation_trials(
            census.sorted_probabilities(),
            vulnerability_probability=vulnerability_probability,
            exploit_budget=exploit_budget,
            trials=trials,
            seed=seed,
            tolerances=tuple(tolerances),
        )
