"""Abstract interface every compute backend implements.

A :class:`ComputeBackend` bundles the numeric hot paths of the reproduction —
batched Monte-Carlo vulnerability trials, Shannon entropy and weighted label
accumulation — behind one seam, so the same analysis code can run on the
dependency-free pure-Python implementation or on a vectorized NumPy one.

The contract every implementation must honor:

- **Determinism per backend.** Given identical arguments (including the
  seed), repeated calls return identical results.  Different backends may use
  different RNG streams, so cross-backend results agree only statistically
  (within Monte-Carlo tolerance), while *verdict*-level quantities derived
  from exact share arithmetic (e.g. "can a single exploit reach the
  tolerance") agree exactly.
- **Semantics over speed.** Both backends implement the same trial model: in
  each trial every configuration independently turns out vulnerable with
  probability ``p``, the attacker exploits the ``budget`` largest vulnerable
  shares, and the trial violates safety when the compromised power reaches
  the tolerance.
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
class CampaignBatchResult:
    """Aggregate outcome of a batch of randomized exploit-campaign trials.

    Attributes:
        trials: number of campaign trials simulated.
        violations: trials whose compromised-power fraction reached the
            tolerance (with :data:`CAMPAIGN_FRACTION_SLACK`).
        compromised_total: sum of compromised voting power (absolute units)
            over all trials; ``compromised_total / (trials * total_power)``
            is the mean compromised fraction.
        per_vulnerability_totals: per-column sums of the power compromised
            through each exploited vulnerability (the ``f_t^i`` of Section
            II-C), accumulated over all trials in column order.
    """

    trials: int
    violations: int
    compromised_total: float
    per_vulnerability_totals: Tuple[float, ...]


@dataclass(frozen=True)
class CampaignGridPoint:
    """One scenario point of a fused campaign grid.

    A grid point selects a subset of the shared exposure matrix's columns —
    either explicitly (``columns``, in selection order) or as the ``budget``
    most damaging columns by exposed power (ranked descending, column index
    as tie-break) — and pins the per-point randomness and verdicts:

    Attributes:
        tolerances: compromised-power fractions evaluated as verdicts on the
            same sampled trials (one exploit draw, several thresholds).
        columns: explicit column indices into the shared matrix, in the
            order the per-point kernel sees them (mutually exclusive with
            ``budget``).
        budget: select the top-``budget`` columns by exposed power inside
            the kernel instead of naming them (the ``topk`` option picks the
            ranking algorithm).
        success_probabilities: per-selected-column exploit probabilities
            overriding the matrix-wide vector (aligned with ``columns``).
        success_probability: scalar override applied to every selected
            column (how a reliability sweep varies one knob per point).
        seed_offset: the point's RNG seed is ``seed + seed_offset``; its
            sub-stream is exactly the stream a standalone
            :meth:`ComputeBackend.campaign_trials` call with that seed draws
            on the column-sliced matrix.
    """

    tolerances: Tuple[float, ...]
    columns: Optional[Tuple[int, ...]] = None
    budget: Optional[int] = None
    success_probabilities: Optional[Tuple[float, ...]] = None
    success_probability: Optional[float] = None
    seed_offset: int = 0


@dataclass(frozen=True)
class ResolvedGridPoint:
    """A grid point after validation: explicit columns, probabilities, seed."""

    columns: Tuple[int, ...]
    probabilities: Tuple[float, ...]
    tolerances: Tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class CampaignGridPointResult:
    """One grid point's aggregate campaign outcome.

    Equivalent to a :class:`CampaignBatchResult` per tolerance, sharing the
    trial draws: ``violations[k]`` is the violation count at
    ``tolerances[k]``, while ``compromised_total`` and
    ``per_vulnerability_totals`` (aligned with ``columns``) are
    tolerance-independent.
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

    def select_columns(self, columns: Sequence[int]) -> "SparseExposure":
        """Column-sliced structure in the selection's local column space.

        ``columns`` are distinct global column indices in selection order;
        the result has ``len(columns)`` columns and keeps every row, with
        each row's surviving cells renumbered to local indices and re-sorted
        ascending (the CSR invariant).  The campaign stream depends only on
        (row, local column), so kernels on the result draw exactly what the
        dense kernels draw on a ``columns_for``-sliced matrix.
        """
        from repro.core.exceptions import BackendError

        self.validate()
        lut = [-1] * self.column_count
        for local, column in enumerate(columns):
            if not 0 <= column < self.column_count:
                raise BackendError(
                    f"column {column} out of range for {self.column_count} "
                    "vulnerabilities"
                )
            if lut[column] != -1:
                raise BackendError(f"duplicate column {column} in selection")
            lut[column] = local
        indptr = _stdlib_array.array("q", [0])
        indices = _stdlib_array.array("q")
        for row in range(self.replica_count):
            selected = [
                lut[self.indices[position]]
                for position in range(self.indptr[row], self.indptr[row + 1])
                if lut[self.indices[position]] != -1
            ]
            selected.sort()
            indices.extend(selected)
            indptr.append(len(indices))
        sliced = SparseExposure(
            indptr=indptr,
            indices=indices,
            powers=self.powers,
            success_probabilities=tuple(
                self.success_probabilities[column] for column in columns
            ),
            disclosed_at=tuple(self.disclosed_at[column] for column in columns),
        )
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
) -> CampaignGridPointResult:
    """Apply the per-trial verdicts to fully merged partial sums.

    Walks the trials in order, accumulating ``compromised_total`` and
    counting a violation whenever ``compromised / total_power`` reaches a
    tolerance (slack :data:`CAMPAIGN_FRACTION_SLACK`) — the same comparisons,
    in the same order, as the dense scalar loop.
    """
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
    return CampaignGridPointResult(
        trials=trials,
        columns=tuple(columns),
        violations=tuple(violations),
        compromised_total=compromised_total,
        per_vulnerability_totals=partial.per_vulnerability_totals,
    )


#: Accepted values of ``campaign_grid``'s draw-precision fast-path knob.
GRID_DTYPES = ("float64", "float32")
#: Accepted values of ``campaign_grid``'s top-k selection knob.
GRID_TOPK_MODES = ("sort", "argpartition")


def grid_topk_columns(
    exposed_powers: Sequence[float], count: int
) -> Tuple[int, ...]:
    """The ``count`` columns with the largest exposed power.

    Ranked by descending power with the column index as tie-break — the
    exact (``topk="sort"``) selection both backends share.  ``count`` beyond
    the column count selects every column.
    """
    order = sorted(
        range(len(exposed_powers)), key=lambda c: (-exposed_powers[c], c)
    )
    return tuple(order[:count])


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
    def campaign_trials(
        self,
        exposure: Sequence[Sequence[float]],
        powers: Sequence[float],
        success_probabilities: Sequence[float],
        *,
        trials: int,
        seed: int,
        tolerance: float,
        total_power: float,
        trial_offset: int = 0,
    ) -> CampaignBatchResult:
        """Run ``trials`` randomized exploit campaigns over an exposure matrix.

        In every trial, each (replica, vulnerability) cell with
        ``exposure[r][v] != 0`` is independently compromised with probability
        ``success_probabilities[v]``; a replica compromised through *any*
        vulnerability contributes its power once to the trial's compromised
        total (and to each relevant per-vulnerability ``f_t^i``), and the
        trial violates safety when the compromised fraction of
        ``total_power`` reaches ``tolerance`` (slack
        :data:`CAMPAIGN_FRACTION_SLACK`).

        The exploit indicator for cell ``(t, r, v)`` is
        ``campaign_uniform(seed, t*R*V + r*V + v) < success_probabilities[v]``
        with ``R = len(powers)`` and ``V = len(success_probabilities)``, so
        every backend draws the **same stream** and the results are
        bit-identical across backends (float reductions under the same
        dyadic-power caveat as :meth:`masked_power_sums`; the violation
        verdicts and counts agree exactly for the shipped scenarios).

        ``trial_offset`` shifts the trial counter: the call computes trials
        ``trial_offset .. trial_offset + trials - 1`` of the logical
        campaign, drawing the exact uniforms a single full-range call would
        draw for those trials.  This is the sharding seam — a worker
        computing ``[lo, hi)`` with ``trial_offset=lo`` produces the same
        per-trial outcomes as the serial run, so shard results sum back to
        the serial result and a retried shard is bit-identical to its first
        attempt.
        """

    @abc.abstractmethod
    def campaign_grid(
        self,
        exposure: Sequence[Sequence[float]],
        powers: Sequence[float],
        success_probabilities: Sequence[float],
        points: Sequence[CampaignGridPoint],
        *,
        trials: int,
        seed: int,
        total_power: float,
        trial_offset: int = 0,
        dtype: str = "float64",
        topk: str = "sort",
    ) -> Tuple[CampaignGridPointResult, ...]:
        """Run ``trials`` campaigns at every grid point in one fused call.

        The whole grid shares one staged ``exposure`` matrix, ``powers``
        vector and base ``success_probabilities`` vector; each point selects
        columns (explicitly or by ``budget`` top-k) and may override the
        probabilities.  Per point ``p``, the exploit indicator for trial
        ``t`` and local cell ``(r, v)`` is::

            campaign_uniform(seed + p.seed_offset,
                             (trial_offset + t) * R * V_p + r * V_p + v)
                < probability_p[v]

        with ``V_p = len(columns_p)`` — exactly the stream a standalone
        :meth:`campaign_trials` call on the column-sliced matrix with seed
        ``seed + p.seed_offset`` draws.  In the default mode
        (``dtype="float64"``) every point's result is therefore
        **bit-identical** to the per-point loop it replaces, across
        backends, under the same dyadic-power summation caveat as
        :meth:`campaign_trials`; all the fused call removes is the repeated
        Python dispatch, RNG staging and matrix slicing.  Each point
        evaluates every entry of ``tolerances`` as a verdict on the same
        sampled trials, so tolerance pairs (BFT vs majority) cost one draw.

        ``trial_offset`` shifts every point's trial counter exactly as in
        :meth:`campaign_trials` — chunked and sharded grid runs partition
        the serial trial sequence invisibly.

        Fast paths (opt-in, *tolerance*-pinned rather than byte-pinned):
        ``dtype="float32"`` lets a backend test each cell against a
        reduced-precision uniform (Monte-Carlo noise dominates the
        difference) — no current backend does, as the NumPy core's exact
        compare costs the same; ``topk="argpartition"`` ranks ``budget``
        selections via ``numpy.argpartition`` on the NumPy backend (same
        columns as the exact path, ties included — only the selection cost
        changes).  Backends without a faster implementation fall back to
        the exact path — never an error.
        """

    # -- sparse campaign kernels ------------------------------------------------

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
        """Row-range partial campaign sums for every resolved grid point.

        This is the one sparse primitive backends implement; the concrete
        :meth:`sparse_campaign_trials` / :meth:`sparse_campaign_grid` wrappers
        and the engines' replica-range chunking are built on it.  ``sparse``
        holds rows ``row_offset .. row_offset + sparse.replica_count - 1`` of
        a logical ``total_rows``-replica exposure (``total_rows=None`` means
        the structure is the whole population).  Per point ``p``, the exploit
        indicator for trial ``t`` and local cell ``(r, v)`` is::

            campaign_uniform(p.seed,
                             (trial_offset + t) * total_rows * V_p
                             + (row_offset + r) * V_p + v)
                < p.probabilities[v]

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

    def sparse_campaign_trials(
        self,
        sparse: SparseExposure,
        *,
        trials: int,
        seed: int,
        tolerance: float,
        total_power: float,
        trial_offset: int = 0,
    ) -> CampaignBatchResult:
        """Sparse variant of :meth:`campaign_trials` — same stream, CSR input.

        Bit-identical to a dense :meth:`campaign_trials` call on the
        densified matrix (dyadic-power caveat on the float totals; verdicts
        and counts exact for the shipped scenarios).  Concrete: one
        full-row-range :meth:`sparse_grid_partials` call over every column
        plus the shared verdict reduction.  Engines that need bounded memory
        chunk the rows through the partials primitive directly.
        """
        from repro.core.exceptions import BackendError

        sparse.validate()
        if sparse.replica_count == 0:
            raise BackendError("campaign_trials needs at least one replica")
        if sparse.column_count == 0:
            raise BackendError("campaign_trials needs at least one vulnerability")
        if trials <= 0:
            raise BackendError(f"trial count must be positive, got {trials}")
        if trial_offset < 0:
            raise BackendError(
                f"trial offset must be non-negative, got {trial_offset}"
            )
        if not 0.0 < tolerance <= 1.0:
            raise BackendError(f"tolerance must be in (0, 1], got {tolerance}")
        if not (math.isfinite(total_power) and total_power > 0):
            raise BackendError(
                f"total power must be positive and finite, got {total_power}"
            )
        point = ResolvedGridPoint(
            columns=tuple(range(sparse.column_count)),
            probabilities=tuple(
                float(p) for p in sparse.success_probabilities
            ),
            tolerances=(tolerance,),
            seed=seed,
        )
        partial = self.sparse_grid_partials(
            sparse, (point,), trials=trials, trial_offset=trial_offset
        )[0]
        result = finalize_sparse_point(
            partial,
            trials=trials,
            columns=point.columns,
            tolerances=point.tolerances,
            total_power=total_power,
        )
        return CampaignBatchResult(
            trials=trials,
            violations=result.violations[0],
            compromised_total=result.compromised_total,
            per_vulnerability_totals=result.per_vulnerability_totals,
        )

    def sparse_campaign_grid(
        self,
        sparse: SparseExposure,
        points: Sequence[CampaignGridPoint],
        *,
        trials: int,
        seed: int,
        total_power: float,
        trial_offset: int = 0,
        dtype: str = "float64",
        topk: str = "sort",
    ) -> Tuple[CampaignGridPointResult, ...]:
        """Sparse variant of :meth:`campaign_grid` over a CSR exposure.

        Points select columns of ``sparse`` exactly as the dense method
        selects matrix columns (explicitly or by ``budget`` over the sparse
        exposed powers), and every point's sub-stream matches the dense fused
        kernel's.  The ``dtype``/``topk`` knobs are validated for parity but
        the sparse path always runs the exact float64/sort route — the
        contract's fall-back, never an error.
        """
        validate_sparse_grid_arguments(
            sparse,
            points,
            trials=trials,
            total_power=total_power,
            trial_offset=trial_offset,
            dtype=dtype,
            topk=topk,
        )
        exposed = (
            self.sparse_masked_power_sums(sparse)
            if any(point.budget is not None for point in points)
            else None
        )
        resolved = resolve_grid_points(
            points,
            base_probabilities=sparse.success_probabilities,
            seed=seed,
            exposed_powers=exposed,
        )
        partials = self.sparse_grid_partials(
            sparse, resolved, trials=trials, trial_offset=trial_offset
        )
        return tuple(
            finalize_sparse_point(
                partial,
                trials=trials,
                columns=point.columns,
                tolerances=point.tolerances,
                total_power=total_power,
            )
            for point, partial in zip(resolved, partials)
        )

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


def validate_campaign_arguments(
    exposure: Sequence[Sequence[float]],
    powers: Sequence[float],
    success_probabilities: Sequence[float],
    *,
    trials: int,
    tolerance: float,
    total_power: float,
    trial_offset: int = 0,
) -> None:
    """Shared argument validation for :meth:`ComputeBackend.campaign_trials`."""
    from repro.core.exceptions import BackendError

    replica_count = len(powers)
    column_count = len(success_probabilities)
    if replica_count == 0:
        raise BackendError("campaign_trials needs at least one replica")
    if column_count == 0:
        raise BackendError("campaign_trials needs at least one vulnerability")
    if len(exposure) != replica_count:
        raise BackendError(
            f"exposure has {len(exposure)} rows for {replica_count} replicas"
        )
    for row in exposure:
        if len(row) != column_count:
            raise BackendError(
                f"exposure row has {len(row)} columns for "
                f"{column_count} vulnerabilities"
            )
    if not all(math.isfinite(power) and power >= 0 for power in powers):
        raise BackendError("replica powers must be finite and non-negative")
    if any(not 0.0 <= p <= 1.0 for p in success_probabilities):
        raise BackendError("success probabilities must be in [0, 1]")
    if trials <= 0:
        raise BackendError(f"trial count must be positive, got {trials}")
    if trial_offset < 0:
        raise BackendError(f"trial offset must be non-negative, got {trial_offset}")
    if not 0.0 < tolerance <= 1.0:
        raise BackendError(f"tolerance must be in (0, 1], got {tolerance}")
    if not (math.isfinite(total_power) and total_power > 0):
        raise BackendError(
            f"total power must be positive and finite, got {total_power}"
        )


def validate_grid_arguments(
    exposure: Sequence[Sequence[float]],
    powers: Sequence[float],
    success_probabilities: Sequence[float],
    points: Sequence[CampaignGridPoint],
    *,
    trials: int,
    total_power: float,
    trial_offset: int = 0,
    dtype: str = "float64",
    topk: str = "sort",
) -> None:
    """Shared argument validation for :meth:`ComputeBackend.campaign_grid`.

    Rejects empty grids, duplicate grid points and malformed scenario
    parameters (NaN/out-of-range tolerances and probabilities, bad column
    selections) with a :class:`~repro.core.exceptions.BackendError` so a
    fused call never silently produces a zero-length or garbage result.
    """
    from repro.core.exceptions import BackendError

    replica_count = len(powers)
    column_count = len(success_probabilities)
    if replica_count == 0:
        raise BackendError("campaign_grid needs at least one replica")
    if column_count == 0:
        raise BackendError("campaign_grid needs at least one vulnerability")
    if len(exposure) != replica_count:
        raise BackendError(
            f"exposure has {len(exposure)} rows for {replica_count} replicas"
        )
    for row in exposure:
        if len(row) != column_count:
            raise BackendError(
                f"exposure row has {len(row)} columns for "
                f"{column_count} vulnerabilities"
            )
    if not all(math.isfinite(power) and power >= 0 for power in powers):
        raise BackendError("replica powers must be finite and non-negative")
    if any(not 0.0 <= p <= 1.0 for p in success_probabilities):
        raise BackendError("success probabilities must be in [0, 1]")
    if trials <= 0:
        raise BackendError(f"trial count must be positive, got {trials}")
    if trial_offset < 0:
        raise BackendError(f"trial offset must be non-negative, got {trial_offset}")
    if not (math.isfinite(total_power) and total_power > 0):
        raise BackendError(
            f"total power must be positive and finite, got {total_power}"
        )
    if dtype not in GRID_DTYPES:
        raise BackendError(
            f"grid dtype must be one of {GRID_DTYPES}, got {dtype!r}"
        )
    if topk not in GRID_TOPK_MODES:
        raise BackendError(
            f"grid topk mode must be one of {GRID_TOPK_MODES}, got {topk!r}"
        )
    _validate_grid_point_list(points, column_count)


def _validate_grid_point_list(
    points: Sequence[CampaignGridPoint], column_count: int
) -> None:
    """Per-point grid validation shared by the dense and sparse entry points."""
    from repro.core.exceptions import BackendError

    if len(points) == 0:
        raise BackendError(
            "campaign_grid needs at least one grid point — an empty grid is a "
            "usage error, not an empty result"
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
        if (point.columns is None) == (point.budget is None):
            raise BackendError(
                f"{where} must set exactly one of columns= or budget="
            )
        if point.columns is not None:
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
        if point.budget is not None:
            if point.budget < 1:
                raise BackendError(
                    f"{where}: budget must be positive, got {point.budget}"
                )
            if point.success_probabilities is not None:
                raise BackendError(
                    f"{where}: per-column success_probabilities need explicit "
                    "columns (budget selection is made inside the kernel)"
                )
        if (
            point.success_probabilities is not None
            and point.success_probability is not None
        ):
            raise BackendError(
                f"{where} sets both success_probabilities and "
                "success_probability"
            )
        if point.success_probabilities is not None:
            if len(point.success_probabilities) != len(point.columns):
                raise BackendError(
                    f"{where}: {len(point.success_probabilities)} probability "
                    f"overrides for {len(point.columns)} columns"
                )
            if any(not 0.0 <= p <= 1.0 for p in point.success_probabilities):
                raise BackendError(
                    f"{where}: success probabilities must be in [0, 1]"
                )
        if point.success_probability is not None and not (
            0.0 <= point.success_probability <= 1.0
        ):
            raise BackendError(
                f"{where}: success probability must be in [0, 1], got "
                f"{point.success_probability}"
            )
        if point.seed_offset < 0:
            raise BackendError(
                f"{where}: seed offset must be non-negative, got "
                f"{point.seed_offset}"
            )
    if len(set(points)) != len(points):
        raise BackendError(
            "campaign_grid points must be distinct — duplicate grid points "
            "share a seed offset and would silently double-count one scenario"
        )


def validate_sparse_grid_arguments(
    sparse: SparseExposure,
    points: Sequence[CampaignGridPoint],
    *,
    trials: int,
    total_power: float,
    trial_offset: int = 0,
    dtype: str = "float64",
    topk: str = "sort",
) -> None:
    """Shared validation for :meth:`ComputeBackend.sparse_campaign_grid`.

    Mirrors :func:`validate_grid_arguments` over a CSR structure — the same
    errors for the same malformed input, on both backends.
    """
    from repro.core.exceptions import BackendError

    sparse.validate()
    if sparse.replica_count == 0:
        raise BackendError("campaign_grid needs at least one replica")
    if sparse.column_count == 0:
        raise BackendError("campaign_grid needs at least one vulnerability")
    if trials <= 0:
        raise BackendError(f"trial count must be positive, got {trials}")
    if trial_offset < 0:
        raise BackendError(f"trial offset must be non-negative, got {trial_offset}")
    if not (math.isfinite(total_power) and total_power > 0):
        raise BackendError(
            f"total power must be positive and finite, got {total_power}"
        )
    if dtype not in GRID_DTYPES:
        raise BackendError(
            f"grid dtype must be one of {GRID_DTYPES}, got {dtype!r}"
        )
    if topk not in GRID_TOPK_MODES:
        raise BackendError(
            f"grid topk mode must be one of {GRID_TOPK_MODES}, got {topk!r}"
        )
    _validate_grid_point_list(points, sparse.column_count)


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
    if trials <= 0:
        raise BackendError(f"trial count must be positive, got {trials}")
    if trial_offset < 0:
        raise BackendError(f"trial offset must be non-negative, got {trial_offset}")
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
    if len(points) == 0:
        raise BackendError("sparse_grid_partials needs at least one grid point")
    for position, point in enumerate(points):
        where = f"resolved grid point #{position}"
        if len(point.columns) == 0:
            raise BackendError(f"{where} selects no columns")
        if len(point.probabilities) != len(point.columns):
            raise BackendError(
                f"{where}: {len(point.probabilities)} probabilities for "
                f"{len(point.columns)} columns"
            )
        seen = set()
        for column in point.columns:
            if not 0 <= column < sparse.column_count:
                raise BackendError(
                    f"{where}: column {column} out of range for "
                    f"{sparse.column_count} vulnerabilities"
                )
            if column in seen:
                raise BackendError(f"{where}: duplicate column {column}")
            seen.add(column)
        if any(not 0.0 <= p <= 1.0 for p in point.probabilities):
            raise BackendError(f"{where}: success probabilities must be in [0, 1]")
    return total


def resolve_grid_points(
    points: Sequence[CampaignGridPoint],
    *,
    base_probabilities: Sequence[float],
    seed: int,
    exposed_powers: Optional[Sequence[float]] = None,
    topk_fn=grid_topk_columns,
) -> Tuple[ResolvedGridPoint, ...]:
    """Turn validated grid points into explicit (columns, probabilities, seed).

    ``exposed_powers`` is required when any point selects by ``budget``;
    ``topk_fn`` is the ranking used for those selections (backends substitute
    their ``argpartition`` variant here for the fast path).
    """
    resolved = []
    for point in points:
        if point.columns is not None:
            columns = tuple(point.columns)
        else:
            if exposed_powers is None:
                raise ValueError(
                    "budget grid points need exposed_powers for top-k selection"
                )
            columns = tuple(topk_fn(exposed_powers, point.budget))
        if point.success_probabilities is not None:
            probabilities = tuple(
                float(p) for p in point.success_probabilities
            )
        elif point.success_probability is not None:
            probabilities = (float(point.success_probability),) * len(columns)
        else:
            probabilities = tuple(
                float(base_probabilities[column]) for column in columns
            )
        resolved.append(
            ResolvedGridPoint(
                columns=columns,
                probabilities=probabilities,
                tolerances=tuple(point.tolerances),
                seed=seed + point.seed_offset,
            )
        )
    return tuple(resolved)
