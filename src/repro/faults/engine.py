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
campaign or a grid, dense or sparse:

1. :meth:`GridCampaignEngine._plan_grid` validates the requests and picks
   each point's targets (worst-case targets through
   :meth:`PopulationMatrix.most_damaging`, then the disclosure gate);
2. :func:`_resolve_plan_points` turns the exploitable points into
   :class:`~repro.backend.base.ResolvedGridPoint` (explicit columns,
   probabilities and seed);
3. :func:`_run_points` hands them to the layout's kernel —
   ``campaign_grid`` in trial chunks on a dense matrix,
   ``sparse_grid_partials`` in row chunks on a CSR one.  Fanning a call's
   trial range out over processes is a backend's business (the ``shm``
   backend's kernel pool), never the engine's;
4. :meth:`GridCampaignEngine._finalize_grid` reduces the merged kernel
   results to :class:`GridPointEstimate` values.

A single campaign (:meth:`GridCampaignEngine.estimate`,
:meth:`GridCampaignEngine.estimate_worst_case`) is a one-request grid.

Because the kernels draw from a counter-based RNG stream
(:func:`repro.backend.base.campaign_uniform`), every backend produces
**identical** estimates for the same seed — campaign experiments are
therefore not backend-sensitive, unlike the census-mode Monte-Carlo
estimator whose per-backend RNG streams predate this engine.

The engine also hosts the census-mode seam (:func:`run_census_trials`) the
violation-probability estimator of :mod:`repro.analysis.monte_carlo` now
routes through, so every batched trial workload in the repository enters the
backends from one module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.backend import get_backend
from repro.backend.base import (
    GridPointResult,
    ResolvedGridPoint,
    SparseExposure,
    TrialBatchResult,
    finalize_sparse_point,
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


#: Default replica-range chunk for sparse campaigns: the engine never hands a
#: backend more than this many CSR rows per kernel call, so peak working
#: memory is bounded by the chunk, not the population.  The sparse stream
#: contract's global row counter makes chunk boundaries invisible — chunked
#: results equal unchunked results bit for bit (dyadic-power caveat on the
#: float totals, exact for every shipped scenario).
DEFAULT_CAMPAIGN_CHUNK_ROWS = 1 << 18

#: Default bound on (replicas × selected columns × chunk trials) cells a
#: single dense kernel call may cover; larger grids split the trial range into
#: chunks under this cap, invisibly to results (``trial_offset`` pins every
#: chunk's slice of the counter-based stream).  Peak *memory* is bounded by
#: the kernels themselves (they stream trials through fixed-size internal
#: buffers), so the default is generous — the cap mainly keeps a pathological
#: grid from monopolizing one kernel call, and tests lower it to exercise the
#: chunk seam.
DEFAULT_GRID_CHUNK_CELLS = 400_000_000

#: What :func:`_run_points` evaluates: a CSR structure, or a dense
#: ``(exposure matrix, powers)`` pair in the backend's array representation.
KernelExposure = Union[SparseExposure, Tuple[Sequence[Sequence[float]], Sequence[float]]]


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
    exposure: KernelExposure,
    points: Sequence[ResolvedGridPoint],
    *,
    trials: int,
    total_power: float,
    chunk_trials: int,
    chunk_rows: int,
) -> Tuple[Tuple[GridPointResult, ...], int]:
    """Evaluate resolved points on the layout's kernel: ``(results, chunks)``.

    A dense ``(matrix, powers)`` exposure splits the trial range into
    ``chunk_trials`` pieces, ``trial_offset`` pinning each piece's slice of
    the counter stream.  A CSR exposure splits the rows into ``chunk_rows``
    ranges (each drawing its slice of the stream via ``row_offset`` and
    ``total_rows``), merges the partial sums in ascending row order, and only
    then takes the per-trial verdicts — a trial's compromised fraction couples
    all rows, so verdicts cannot be taken per chunk.
    """
    if isinstance(exposure, SparseExposure):
        total_rows = exposure.replica_count
        chunks = []
        for start in range(0, total_rows, chunk_rows):
            stop = min(start + chunk_rows, total_rows)
            piece = (
                exposure
                if stop - start == total_rows
                else exposure.row_slice(start, stop)
            )
            with timed_kernel(
                "sparse_campaign_partials", trials=trials * len(points)
            ):
                chunks.append(
                    backend.sparse_grid_partials(
                        piece,
                        points,
                        trials=trials,
                        row_offset=start,
                        total_rows=total_rows,
                    )
                )
        merged = merge_sparse_partials(chunks)
        results = tuple(
            finalize_sparse_point(
                partial,
                trials=trials,
                columns=point.columns,
                tolerances=point.tolerances,
                total_power=total_power,
            )
            for point, partial in zip(points, merged)
        )
        return results, len(chunks)
    matrix, powers = exposure
    batches = []
    for offset in range(0, trials, chunk_trials):
        count = min(chunk_trials, trials - offset)
        with timed_kernel("campaign_grid", trials=count * len(points)):
            batches.append(
                backend.campaign_grid(
                    matrix,
                    powers,
                    points,
                    trials=count,
                    total_power=total_power,
                    trial_offset=offset,
                )
            )
    return merge_campaign_grid_batches(batches), len(batches)


class GridCampaignEngine:
    """Runs randomized exploit campaigns — single or gridded — over a matrix.

    A grid (:meth:`estimate_grid`) stages the shared exposure once and hands
    the backend every point in one kernel call per chunk: trials × points,
    multi-tolerance verdicts on shared draws, and per-point counter-based
    sub-streams, so each point is bit-identical to running it on its own.
    :meth:`estimate` and :meth:`estimate_worst_case` are one-request grids.

    Dense matrices run trial-chunked: the trial range is split so
    ``replicas × selected columns × chunk_trials`` stays under
    ``max_chunk_cells``.  Sparse matrices run row-chunked in ``chunk_rows``
    replica ranges.  Either way the counter stream makes chunk boundaries
    invisible to every number.
    """

    def __init__(
        self,
        population: Optional[ReplicaPopulation],
        catalog: Optional[VulnerabilityCatalog],
        *,
        backend: BackendLike = None,
        matrix: Optional[PopulationMatrix] = None,
        max_chunk_cells: int = DEFAULT_GRID_CHUNK_CELLS,
        chunk_rows: int = DEFAULT_CAMPAIGN_CHUNK_ROWS,
    ) -> None:
        if max_chunk_cells <= 0:
            raise FaultModelError(
                f"chunk cell budget must be positive, got {max_chunk_cells}"
            )
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
        self._max_chunk_cells = max_chunk_cells
        self._chunk_rows = chunk_rows
        self._last_chunk_count = 0

    @classmethod
    def from_matrix(
        cls,
        matrix: PopulationMatrix,
        *,
        backend: BackendLike = None,
        max_chunk_cells: int = DEFAULT_GRID_CHUNK_CELLS,
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
            max_chunk_cells=max_chunk_cells,
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
    def population(self) -> Optional[ReplicaPopulation]:
        return self._population

    @property
    def catalog(self) -> Optional[VulnerabilityCatalog]:
        return self._catalog

    @property
    def last_chunk_count(self) -> int:
        """How many chunks the most recent :meth:`estimate_grid` used.

        Trial-range chunks on the dense path, replica-range chunks on the
        sparse path — either way the count of kernel passes over the grid.
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
            backend = get_backend(self._backend)
            exposure: KernelExposure = (
                self._matrix.sparse_exposure()
                if self._matrix.is_sparse
                else (
                    self._matrix.exposure_array(backend),
                    self._matrix.powers_array(backend),
                )
            )
            merged, self._last_chunk_count = _run_points(
                backend,
                exposure,
                points,
                trials=trials,
                total_power=self._matrix.total_power,
                chunk_trials=self._chunk_trials(points),
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

    def _chunk_trials(self, points: Sequence[ResolvedGridPoint]) -> int:
        cells_per_trial = self._matrix.replica_count * sum(
            len(point.columns) for point in points
        )
        return max(1, self._max_chunk_cells // max(1, cells_per_trial))

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
    tolerance: float,
    backend: BackendLike = None,
) -> TrialBatchResult:
    """Census-mode batched trials (the PR-1 Monte-Carlo kernel).

    Treats every configuration as one independent fault domain and exploits
    the ``exploit_budget`` largest vulnerable shares per trial — the
    estimator :mod:`repro.analysis.monte_carlo` wraps.  Kept here so all
    batched trial workloads enter the backends through the campaign engine;
    the per-backend RNG streams (and therefore every golden snapshot) are
    unchanged.
    """
    resolved = get_backend(backend)
    with timed_kernel("violation_trials", trials=trials):
        return resolved.violation_trials(
            census.sorted_probabilities_array(resolved),
            vulnerability_probability=vulnerability_probability,
            exploit_budget=exploit_budget,
            trials=trials,
            seed=seed,
            tolerance=tolerance,
        )
