"""Abstract interface every compute backend implements.

A :class:`ComputeBackend` bundles the numeric hot paths of the reproduction —
batched Monte-Carlo vulnerability trials, exploit campaigns, Shannon entropy
and weighted label accumulation — behind one seam, so the same analysis code
can run on the dependency-free pure-Python implementation, on a vectorized
NumPy one or on NumPy fanned out over shared-memory workers.

The campaign part of the seam is two kernels over the same input, a tuple
of :class:`ResolvedGridPoint` (explicit columns, per-column exploit
probabilities, tolerances and seed), checked by one validator:

- :meth:`ComputeBackend.campaign_grid` runs every point over a dense 0/1
  exposure matrix and returns finished per-point results;
- :meth:`ComputeBackend.sparse_grid_partials` runs every point over a row
  range of a CSR :class:`SparseExposure` and returns per-trial partial sums,
  which :func:`merge_sparse_partials` and :func:`finalize_sparse_point` turn
  into the same results once every row range is in.

Two exposure reductions, :meth:`ComputeBackend.masked_power_sums` and
:meth:`ComputeBackend.sparse_masked_power_sums`, feed target selection.
Choosing targets and resolving them into points is the engine's job
(:mod:`repro.faults.engine`), never a kernel's.

The contract every implementation must honor:

- **Determinism per backend.** Given identical arguments (including the
  seed), repeated calls return identical results.
- **One campaign stream.** Both campaign kernels draw from the
  counter-based :func:`campaign_uniform` stream, so every backend, both
  layouts and every trial or row partition read the same uniforms; results
  are bit-identical whenever the power sums are exact (dyadic powers, as in
  every shipped scenario).
- **Census mode differs.** :meth:`ComputeBackend.violation_trials` predates
  that stream: backends draw from their own generators, so its results agree
  across backends only within Monte-Carlo tolerance, while verdicts derived
  from exact share arithmetic (e.g. "can a single exploit reach the
  tolerance") agree exactly.
"""

from __future__ import annotations

import abc
import array as _stdlib_array
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

#: Slack applied when a compromised-power *fraction* is compared against a
#: tolerance (mirrors ``CampaignOutcome.violates``): a trial violates safety
#: when ``compromised / total >= tolerance - CAMPAIGN_FRACTION_SLACK``.
CAMPAIGN_FRACTION_SLACK = 1e-12

# -- counter-based campaign RNG ------------------------------------------------
#
# The campaign kernels draw their per-(trial, replica, vulnerability) exploit
# indicators from a *counter-based* splitmix64 stream instead of a sequential
# generator: uniform #n depends only on (seed, n), never on how many draws
# came before it.  That is what makes the batched NumPy kernel and the scalar
# fallback bit-identical — the scalar path may skip unexposed cells entirely
# while the array path masks them after a dense draw, and both still read the
# exact same uniforms for the cells that matter.

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)


def campaign_uniform(seed: int, index: int) -> float:
    """Uniform in ``[0, 1)`` for cell ``index`` of the seeded campaign stream.

    This is the scalar reference implementation (splitmix64 finalizer over a
    Weyl sequence); array backends must reproduce it bit for bit.
    """
    z = ((seed & _MASK64) + ((index + 1) * _SPLITMIX_GAMMA)) & _MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MIX2) & _MASK64
    z ^= z >> 31
    return (z >> 11) * _INV_2_53


@dataclass(frozen=True)
class TrialBatchResult:
    """Aggregate outcome of a batch of Monte-Carlo vulnerability trials.

    Attributes:
        trials: number of trials simulated.
        violations: trials in which compromised power reached the tolerance.
        compromised_total: sum of compromised power fractions over all trials
            (``compromised_total / trials`` is the mean compromised fraction).
    """

    trials: int
    violations: int
    compromised_total: float


@dataclass(frozen=True)
class ResolvedGridPoint:
    """One campaign scenario as both campaign kernels take it.

    Attributes:
        columns: exposure columns the attacker exploits, in the order the
            point's sub-stream numbers them (local column ``c`` is
            ``columns[c]``).
        probabilities: exploit success probability of each selected column,
            aligned with ``columns``.
        tolerances: compromised-power fractions judged as verdicts on the
            same sampled trials (one exploit draw, several thresholds).
        seed: the point's campaign stream seed.
    """

    columns: Tuple[int, ...]
    probabilities: Tuple[float, ...]
    tolerances: Tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class GridPointResult:
    """One grid point's aggregate campaign outcome.

    ``violations[k]`` counts the trials whose compromised fraction reached
    ``tolerances[k]``; every tolerance judges the same draws, so
    ``compromised_total`` (absolute power summed over trials) and
    ``per_vulnerability_totals`` (the per-column ``f_t^i`` sums of Section
    II-C, aligned with ``columns``) are tolerance-independent.
    """

    trials: int
    columns: Tuple[int, ...]
    violations: Tuple[int, ...]
    compromised_total: float
    per_vulnerability_totals: Tuple[float, ...]


# -- sparse exposure -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SparseExposure:
    """CSR-compressed replica → vulnerability exposure plus campaign vectors.

    Row ``r``'s exposed columns are ``indices[indptr[r]:indptr[r + 1]]``,
    strictly increasing within each row; ``powers`` is per replica while
    ``success_probabilities`` and ``disclosed_at`` are per column.  The
    structure is the sparse analogue of the dense ``exposure`` argument the
    campaign kernels take: cell ``(r, v)`` is exposed exactly when ``v``
    appears in row ``r``'s index slice, so a densified copy fed to the dense
    kernels produces bit-identical results.

    Storage is whatever integer/float sequences the caller provides; the
    :func:`from_rows` constructor packs stdlib ``array`` buffers (``'q'`` and
    ``'d'`` typecodes), which keep a million-replica structure in tens of
    megabytes, pickle compactly for shard workers, and convert to NumPy
    zero-copy.  Treat a constructed instance as immutable — kernels cache the
    structural validation on it.
    """

    indptr: Sequence[int]
    indices: Sequence[int]
    powers: Sequence[float]
    success_probabilities: Sequence[float]
    disclosed_at: Sequence[float]
    _validated: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def replica_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def column_count(self) -> int:
        return len(self.success_probabilities)

    @property
    def nnz(self) -> int:
        """Number of exposed (replica, vulnerability) cells."""
        return len(self.indices)

    @property
    def density(self) -> float:
        """Exposed-cell fraction of the dense replicas × vulnerabilities grid."""
        cells = self.replica_count * self.column_count
        return len(self.indices) / cells if cells else 0.0

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[int]],
        powers: Iterable[float],
        success_probabilities: Sequence[float],
        disclosed_at: Optional[Sequence[float]] = None,
    ) -> "SparseExposure":
        """Pack per-row exposed-column index sequences into validated CSR."""
        indptr = _stdlib_array.array("q", [0])
        indices = _stdlib_array.array("q")
        for row in rows:
            indices.extend(row)
            indptr.append(len(indices))
        probabilities = tuple(float(p) for p in success_probabilities)
        disclosed = (
            tuple(float(value) for value in disclosed_at)
            if disclosed_at is not None
            else (0.0,) * len(probabilities)
        )
        sparse = cls(
            indptr=indptr,
            indices=indices,
            powers=_stdlib_array.array("d", (float(p) for p in powers)),
            success_probabilities=probabilities,
            disclosed_at=disclosed,
        )
        sparse.validate()
        return sparse

    @classmethod
    def from_dense(
        cls,
        exposure: Sequence[Sequence[float]],
        powers: Iterable[float],
        success_probabilities: Sequence[float],
        disclosed_at: Optional[Sequence[float]] = None,
    ) -> "SparseExposure":
        """Compress a dense 0/1 exposure matrix (row-major) to CSR."""
        rows = (
            tuple(column for column, cell in enumerate(row) if cell)
            for row in exposure
        )
        return cls.from_rows(rows, powers, success_probabilities, disclosed_at)

    def validate(self) -> "SparseExposure":
        """Check the CSR invariants once; later calls are a cached no-op."""
        if self._validated:
            return self
        from repro.core.exceptions import BackendError

        if len(self.indptr) == 0 or self.indptr[0] != 0:
            raise BackendError(
                "sparse exposure indptr must start with 0 and have one entry "
                "per replica plus one"
            )
        if self.indptr[-1] != len(self.indices):
            raise BackendError(
                f"sparse exposure indptr ends at {self.indptr[-1]} but there "
                f"are {len(self.indices)} column indices"
            )
        replica_count = self.replica_count
        column_count = self.column_count
        if len(self.powers) != replica_count:
            raise BackendError(
                f"sparse exposure has {len(self.powers)} powers for "
                f"{replica_count} replicas"
            )
        if len(self.disclosed_at) != column_count:
            raise BackendError(
                f"sparse exposure has {len(self.disclosed_at)} disclosure "
                f"times for {column_count} vulnerabilities"
            )
        indptr = self.indptr
        indices = self.indices
        for row in range(replica_count):
            begin, end = indptr[row], indptr[row + 1]
            if end < begin:
                raise BackendError("sparse exposure indptr must be non-decreasing")
            previous = -1
            for position in range(begin, end):
                column = indices[position]
                if not 0 <= column < column_count:
                    raise BackendError(
                        f"sparse exposure column {column} out of range for "
                        f"{column_count} vulnerabilities"
                    )
                if column <= previous:
                    raise BackendError(
                        "sparse exposure columns must be strictly increasing "
                        "within each row (sorted, no duplicates)"
                    )
                previous = column
        if not all(math.isfinite(power) and power >= 0 for power in self.powers):
            raise BackendError("replica powers must be finite and non-negative")
        if any(not 0.0 <= p <= 1.0 for p in self.success_probabilities):
            raise BackendError("success probabilities must be in [0, 1]")
        object.__setattr__(self, "_validated", True)
        return self

    def row_slice(self, start: int, stop: int) -> "SparseExposure":
        """Rows ``[start, stop)`` as a standalone structure (rebased indptr).

        The slice keeps every column, so local column indices — and with them
        the campaign counter stream, given the right ``row_offset`` — are
        unchanged.
        """
        from repro.core.exceptions import BackendError

        if not 0 <= start <= stop <= self.replica_count:
            raise BackendError(
                f"row slice [{start}, {stop}) out of range for "
                f"{self.replica_count} replicas"
            )
        base = self.indptr[start]
        indptr = _stdlib_array.array(
            "q", (self.indptr[row] - base for row in range(start, stop + 1))
        )
        sliced = SparseExposure(
            indptr=indptr,
            indices=self.indices[base : self.indptr[stop]],
            powers=self.powers[start:stop],
            success_probabilities=self.success_probabilities,
            disclosed_at=self.disclosed_at,
        )
        if self._validated:
            object.__setattr__(sliced, "_validated", True)
        return sliced


@dataclass(frozen=True)
class SparseGridPartial:
    """Row-range partial sums of one grid point's campaign trials.

    ``per_trial_compromised[t]`` is the power compromised in trial
    ``trial_offset + t`` *within the computed row range only*; the verdict
    (compromised fraction vs tolerance) couples all rows of a trial, so it
    can only be taken after every row chunk's partials are summed —
    :func:`merge_sparse_partials` + :func:`finalize_sparse_point` do exactly
    that.  ``per_vulnerability_totals`` is the usual per-local-column
    compromised-power total over the range's rows and all trials.
    """

    per_trial_compromised: Tuple[float, ...]
    per_vulnerability_totals: Tuple[float, ...]


def merge_sparse_partials(
    chunks: Sequence[Sequence[SparseGridPartial]],
) -> Tuple[SparseGridPartial, ...]:
    """Sum per-row-chunk partials elementwise, in chunk (= row) order.

    ``chunks[k][p]`` is row chunk ``k``'s partial for grid point ``p``.
    Summing chunk partials in ascending row order adds each trial's
    compromised power in the same ascending-row sequence a full-range kernel
    uses, so the merge is exact for dyadic powers (the shipped scenarios) and
    chunk boundaries stay invisible.
    """
    from repro.core.exceptions import BackendError

    if len(chunks) == 0:
        raise BackendError("cannot merge zero sparse partial chunks")
    point_count = len(chunks[0])
    for chunk in chunks:
        if len(chunk) != point_count:
            raise BackendError(
                "sparse partial chunks disagree on the grid point count"
            )
    merged = []
    for position in range(point_count):
        first = chunks[0][position]
        per_trial = [0.0] * len(first.per_trial_compromised)
        per_vulnerability = [0.0] * len(first.per_vulnerability_totals)
        for chunk in chunks:
            partial = chunk[position]
            if len(partial.per_trial_compromised) != len(per_trial) or len(
                partial.per_vulnerability_totals
            ) != len(per_vulnerability):
                raise BackendError(
                    "sparse partial chunks disagree on trial or column counts"
                )
            for trial, value in enumerate(partial.per_trial_compromised):
                per_trial[trial] += value
            for column, value in enumerate(partial.per_vulnerability_totals):
                per_vulnerability[column] += value
        merged.append(
            SparseGridPartial(
                per_trial_compromised=tuple(per_trial),
                per_vulnerability_totals=tuple(per_vulnerability),
            )
        )
    return tuple(merged)


def finalize_sparse_point(
    partial: SparseGridPartial,
    *,
    trials: int,
    columns: Tuple[int, ...],
    tolerances: Sequence[float],
    total_power: float,
) -> GridPointResult:
    """Apply the per-trial verdicts to fully merged partial sums.

    Walks the trials in order, accumulating ``compromised_total`` and
    counting a violation whenever ``compromised / total_power`` reaches a
    tolerance (slack :data:`CAMPAIGN_FRACTION_SLACK`) — the same comparisons,
    in the same order, as the dense scalar loop.  A partial that does not
    hold exactly ``trials`` per-trial sums is rejected (its verdicts would be
    divided by trials that never ran), and so is a total power that is not
    positive and finite.
    """
    from repro.core.exceptions import BackendError

    if len(partial.per_trial_compromised) != trials:
        raise BackendError(
            f"partial holds {len(partial.per_trial_compromised)} trial sums "
            f"but {trials} trials were requested"
        )
    if not (math.isfinite(total_power) and total_power > 0):
        raise BackendError(
            f"total power must be positive and finite, got {total_power}"
        )
    thresholds = tuple(
        tolerance - CAMPAIGN_FRACTION_SLACK for tolerance in tolerances
    )
    violations = [0] * len(thresholds)
    compromised_total = 0.0
    for compromised in partial.per_trial_compromised:
        compromised_total += compromised
        fraction = compromised / total_power
        for position, threshold in enumerate(thresholds):
            if fraction >= threshold:
                violations[position] += 1
    return GridPointResult(
        trials=trials,
        columns=tuple(columns),
        violations=tuple(violations),
        compromised_total=compromised_total,
        per_vulnerability_totals=partial.per_vulnerability_totals,
    )


class ComputeBackend(abc.ABC):
    """Numeric kernel provider for the analysis layer.

    Subclasses are stateless; one shared instance per backend is cached by
    :func:`repro.backend.get_backend`.
    """

    #: Registry name of the backend ("python", "numpy", ...).
    name: str = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend can run in the current environment."""
        return True

    @classmethod
    def availability_error(cls) -> Optional[str]:
        """Why the backend is unavailable, or ``None`` when it can run.

        Backends with optional dependencies override this to surface the
        captured import/probe error; ``repro.cli backends`` prints it so an
        operator sees *why* a backend is missing, not just that it is.
        Implementations must agree with :meth:`is_available`.
        """
        if cls.is_available():
            return None
        return f"backend {cls.name!r} reports itself unavailable"

    # -- Monte-Carlo kernel -----------------------------------------------------

    @abc.abstractmethod
    def violation_trials(
        self,
        shares: Sequence[float],
        *,
        vulnerability_probability: float,
        exploit_budget: int,
        trials: int,
        seed: int,
        tolerance: float,
    ) -> TrialBatchResult:
        """Run ``trials`` independent vulnerability scenarios.

        Args:
            shares: voting-power shares sorted in descending order (callers
                are responsible for the sort; backends rely on it to take the
                ``exploit_budget`` largest vulnerable shares without
                re-sorting per trial).
            vulnerability_probability: per-configuration vulnerability
                probability in ``[0, 1]``.
            exploit_budget: number of vulnerable configurations the attacker
                exploits simultaneously (greedily, largest shares first).
            trials: number of scenarios to sample (positive).
            seed: RNG seed; fixes the backend's stream deterministically.
            tolerance: compromised-power fraction at which a trial counts as
                a safety violation.
        """

    # -- campaign kernels -------------------------------------------------------

    @abc.abstractmethod
    def masked_power_sums(
        self,
        exposure: Sequence[Sequence[float]],
        powers: Sequence[float],
    ) -> Tuple[float, ...]:
        """Per-column masked power reduction: ``powers @ exposure``.

        ``exposure`` is a replicas × vulnerabilities 0/1 matrix (each row the
        indicator vector of one replica's fault domains) and ``powers`` the
        per-replica voting power; the result is each vulnerability's exposed
        power — the ``f_t^i`` upper bound before exploit reliability.

        Array backends reduce along the replica axis with their native
        (pairwise) summation; the scalar fallback sums sequentially in row
        order.  The two are bit-identical whenever the power values sum
        exactly in float64 (integers and other dyadic rationals — every
        shipped scenario), and agree to float tolerance otherwise.
        """

    @abc.abstractmethod
    def campaign_grid(
        self,
        exposure: Sequence[Sequence[float]],
        powers: Sequence[float],
        points: Sequence[ResolvedGridPoint],
        *,
        trials: int,
        total_power: float,
        trial_offset: int = 0,
    ) -> Tuple[GridPointResult, ...]:
        """Run ``trials`` randomized exploit campaigns at every point.

        In every trial, each cell ``(r, c)`` with
        ``exposure[r][p.columns[c]] != 0`` is independently compromised with
        probability ``p.probabilities[c]``; a replica compromised through
        *any* column contributes its power once to the trial's compromised
        total (and to each relevant per-column ``f_t^i``), and the trial
        violates ``tolerances[k]`` when the compromised fraction of
        ``total_power`` reaches it (slack :data:`CAMPAIGN_FRACTION_SLACK`).
        The exploit indicator for trial ``t`` and local cell ``(r, c)`` is::

            campaign_uniform(p.seed,
                             (trial_offset + t) * R * V_p + r * V_p + c)
                < p.probabilities[c]

        with ``R = len(powers)`` and ``V_p = len(p.columns)``, so every
        backend draws the same stream and the results are bit-identical
        across backends (float reductions under the same dyadic-power caveat
        as :meth:`masked_power_sums`; verdicts and counts agree exactly for
        the shipped scenarios).  Every tolerance of a point judges the same
        draws, so a BFT/majority pair costs one draw.

        ``trial_offset`` shifts the trial counter: the call computes trials
        ``trial_offset .. trial_offset + trials - 1`` of the logical
        campaign, drawing the exact uniforms a single full-range call would
        draw for those trials.  This is the chunking and sharding seam — a
        worker computing ``[lo, hi)`` with ``trial_offset=lo`` produces the
        same per-trial outcomes as the serial run, so range results sum back
        to the serial result and a retried range is bit-identical to its
        first attempt.
        """

    @abc.abstractmethod
    def sparse_masked_power_sums(
        self, sparse: SparseExposure
    ) -> Tuple[float, ...]:
        """Per-column exposed-power reduction over a CSR exposure.

        The sparse variant of :meth:`masked_power_sums`: each vulnerability's
        exposed power, summed over the replicas whose row slice contains its
        column.  The scalar fallback adds in ascending row order; array
        backends group with their native reductions — bit-identical under the
        same dyadic-power caveat as the dense method.
        """

    @abc.abstractmethod
    def sparse_grid_partials(
        self,
        sparse: SparseExposure,
        points: Sequence[ResolvedGridPoint],
        *,
        trials: int,
        trial_offset: int = 0,
        row_offset: int = 0,
        total_rows: Optional[int] = None,
    ) -> Tuple[SparseGridPartial, ...]:
        """Row-range partial campaign sums for every point over a CSR exposure.

        ``sparse`` holds rows ``row_offset .. row_offset +
        sparse.replica_count - 1`` of a logical ``total_rows``-replica
        exposure (``total_rows=None`` means the structure is the whole
        population).  Per point ``p``, the exploit indicator for trial ``t``
        and local cell ``(r, c)`` is::

            campaign_uniform(p.seed,
                             (trial_offset + t) * total_rows * V_p
                             + (row_offset + r) * V_p + c)
                < p.probabilities[c]

        with ``V_p = len(p.columns)`` and ``p.columns`` indexing
        ``sparse``'s column space — the exact cells a full-range dense
        :meth:`campaign_grid` call draws for these rows.  Both the trial and
        the row counter are global, so partitioning the rows (or the trials)
        across calls and summing the partials reproduces the unpartitioned
        sums: chunk boundaries are invisible by construction.

        Returns one :class:`SparseGridPartial` per point; callers apply the
        per-trial verdicts via :func:`finalize_sparse_point` only after all
        row ranges are merged.
        """

    # -- entropy kernel ---------------------------------------------------------

    @abc.abstractmethod
    def shannon_entropy(self, probabilities: Sequence[float], *, base: float = 2.0) -> float:
        """Shannon entropy of an already-validated probability vector.

        Zero entries contribute nothing (the paper's ``0 * log(1/0) = 0``
        convention).  Validation (non-negativity, normalization) is the
        caller's job — this is the inner-loop kernel only.
        """

    # -- weighted accumulation kernel -------------------------------------------

    def weighted_bincount(
        self,
        labels: Sequence[Hashable],
        weights: Sequence[float],
    ) -> Dict[Hashable, float]:
        """Sum ``weights`` grouped by label, preserving first-appearance order.

        The returned dict maps each distinct label to the sum of the weights
        at its positions; iteration order matches the order in which labels
        first appear, so downstream :class:`ConfigurationDistribution`
        construction is identical across backends.

        The dict accumulation here is the shared default: census labels are
        arbitrary hashables (usually strings), which array libraries can
        only group via an object-dtype sort that loses to a plain hash loop.
        Backends with a genuinely faster grouping may override.
        """
        accumulated: Dict[Hashable, float] = {}
        for label, weight in zip(labels, weights):
            accumulated[label] = accumulated.get(label, 0.0) + float(weight)
        return accumulated

    # -- array construction -----------------------------------------------------

    @abc.abstractmethod
    def asarray(self, values: Sequence[float]) -> Sequence[float]:
        """The backend's preferred array representation of a float sequence.

        The pure-Python backend returns a tuple; array backends return their
        native array type, frozen read-only.  :class:`ConfigurationDistribution`
        caches the result per backend so hot paths hand the kernels a
        ready-made array instead of rebuilding one per call — callers must
        treat it as immutable (copy before mutating).
        """

    @abc.abstractmethod
    def asarray_matrix(
        self, rows: Sequence[Sequence[float]]
    ) -> Sequence[Sequence[float]]:
        """The backend's preferred 2-D representation of a row-major matrix.

        The pure-Python backend returns a tuple of row tuples; array backends
        return their native 2-D array, frozen read-only.
        :class:`~repro.faults.matrix.PopulationMatrix` caches the result per
        backend so the campaign kernels receive a ready-made matrix — callers
        must treat it as immutable.
        """

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


def validate_trial_arguments(
    shares: Sequence[float],
    *,
    vulnerability_probability: float,
    exploit_budget: int,
    trials: int,
    tolerance: float,
) -> None:
    """Shared argument validation for :meth:`ComputeBackend.violation_trials`.

    Raises :class:`~repro.core.exceptions.BackendError` on invalid input so a
    backend never has to trust its caller.
    """
    from repro.core.exceptions import BackendError

    if len(shares) == 0:
        raise BackendError("violation_trials needs at least one share")
    if not 0.0 <= vulnerability_probability <= 1.0:
        raise BackendError(
            f"vulnerability probability must be in [0, 1], got {vulnerability_probability}"
        )
    if exploit_budget < 0:
        raise BackendError(f"exploit budget must be non-negative, got {exploit_budget}")
    if trials <= 0:
        raise BackendError(f"trial count must be positive, got {trials}")
    if not 0.0 < tolerance <= 1.0:
        raise BackendError(f"tolerance must be in (0, 1], got {tolerance}")
    if any(later > earlier for earlier, later in zip(shares, shares[1:])):
        raise BackendError("shares must be sorted in descending order")


def validate_grid_arguments(
    exposure: Sequence[Sequence[float]],
    powers: Sequence[float],
    points: Sequence[ResolvedGridPoint],
    *,
    trials: int,
    total_power: float,
    trial_offset: int = 0,
) -> None:
    """Shared argument validation for :meth:`ComputeBackend.campaign_grid`.

    Rejects empty or ragged matrices, bad powers and run arguments, and every
    malformed point (see :func:`validate_grid_points`) with a
    :class:`~repro.core.exceptions.BackendError`, so a kernel never silently
    produces a zero-length or garbage result.
    """
    from repro.core.exceptions import BackendError

    replica_count = len(powers)
    if replica_count == 0:
        raise BackendError("campaign_grid needs at least one replica")
    if len(exposure) != replica_count:
        raise BackendError(
            f"exposure has {len(exposure)} rows for {replica_count} replicas"
        )
    column_count = len(exposure[0])
    if column_count == 0:
        raise BackendError("campaign_grid needs at least one vulnerability")
    for row in exposure:
        if len(row) != column_count:
            raise BackendError(
                f"exposure row has {len(row)} columns for "
                f"{column_count} vulnerabilities"
            )
    if not all(math.isfinite(power) and power >= 0 for power in powers):
        raise BackendError("replica powers must be finite and non-negative")
    _validate_trial_range(trials, trial_offset)
    if not (math.isfinite(total_power) and total_power > 0):
        raise BackendError(
            f"total power must be positive and finite, got {total_power}"
        )
    validate_grid_points(points, column_count)


def validate_sparse_partial_arguments(
    sparse: SparseExposure,
    points: Sequence[ResolvedGridPoint],
    *,
    trials: int,
    trial_offset: int = 0,
    row_offset: int = 0,
    total_rows: Optional[int] = None,
) -> int:
    """Shared validation for :meth:`ComputeBackend.sparse_grid_partials`.

    Returns the effective logical row count (``total_rows`` or the
    structure's own), after checking that the row chunk fits inside it.
    """
    from repro.core.exceptions import BackendError

    sparse.validate()
    if sparse.replica_count == 0:
        raise BackendError("sparse_grid_partials needs at least one replica")
    if sparse.column_count == 0:
        raise BackendError("sparse_grid_partials needs at least one vulnerability")
    _validate_trial_range(trials, trial_offset)
    if row_offset < 0:
        raise BackendError(f"row offset must be non-negative, got {row_offset}")
    total = (
        total_rows if total_rows is not None else row_offset + sparse.replica_count
    )
    if total < row_offset + sparse.replica_count:
        raise BackendError(
            f"total_rows={total} cannot hold rows "
            f"[{row_offset}, {row_offset + sparse.replica_count})"
        )
    validate_grid_points(points, sparse.column_count)
    return total


def _validate_trial_range(trials: int, trial_offset: int) -> None:
    from repro.core.exceptions import BackendError

    if trials <= 0:
        raise BackendError(f"trial count must be positive, got {trials}")
    if trial_offset < 0:
        raise BackendError(f"trial offset must be non-negative, got {trial_offset}")


def validate_grid_points(
    points: Sequence[ResolvedGridPoint], column_count: int
) -> None:
    """The one point validator both campaign kernels share.

    Rejects an empty grid, duplicate points (they would report one scenario
    twice) and, per point, missing or out-of-range tolerances, empty,
    out-of-range or repeated columns, and probabilities that are misaligned
    with the columns or outside ``[0, 1]`` (NaN included).
    """
    from repro.core.exceptions import BackendError

    if len(points) == 0:
        raise BackendError(
            "a campaign grid needs at least one grid point — an empty grid is "
            "a usage error, not an empty result"
        )
    for position, point in enumerate(points):
        where = f"grid point #{position}"
        if len(point.tolerances) == 0:
            raise BackendError(f"{where} has no tolerances")
        for tolerance in point.tolerances:
            if not 0.0 < tolerance <= 1.0:  # also rejects NaN
                raise BackendError(
                    f"{where}: tolerance must be in (0, 1], got {tolerance}"
                )
        if len(point.columns) == 0:
            raise BackendError(f"{where} selects no columns")
        seen = set()
        for column in point.columns:
            if not 0 <= column < column_count:
                raise BackendError(
                    f"{where}: column {column} out of range for "
                    f"{column_count} vulnerabilities"
                )
            if column in seen:
                raise BackendError(f"{where}: duplicate column {column}")
            seen.add(column)
        if len(point.probabilities) != len(point.columns):
            raise BackendError(
                f"{where}: {len(point.probabilities)} probabilities for "
                f"{len(point.columns)} columns"
            )
        if any(not 0.0 <= p <= 1.0 for p in point.probabilities):
            raise BackendError(f"{where}: success probabilities must be in [0, 1]")
    if len(set(points)) != len(points):
        raise BackendError(
            "grid points must be distinct — a duplicate point would report "
            "one scenario twice"
        )
