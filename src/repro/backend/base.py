"""Abstract interface every compute backend implements.

A :class:`ComputeBackend` bundles the numeric hot paths of the reproduction —
census trials, market choices, exploit campaigns and the exposure
reduction — behind one seam, so the same analysis code can run on the
dependency-free pure-Python implementation, on a vectorized NumPy one or on
NumPy fanned out over shared-memory workers.  The seam holds only kernels
whose implementations differ between backends (plus two aliases perfbench
patches by name); code that would be the same on every backend lives with
its callers.

Campaigns have one exposure layout, the CSR :class:`SparseExposure`, and one
kernel: :meth:`ComputeBackend.sparse_grid_partials` runs a tuple of
:class:`ResolvedGridPoint` (explicit columns, per-column exploit
probabilities, tolerances and seed) over a row range and returns per-trial
partial sums in the backend's own array type.  Row ranges add up
elementwise in :func:`merge_sparse_partials`,
:meth:`ComputeBackend.campaign_verdicts` judges the merged sums into
:class:`GridPointResult` values, and the results of the engine's trial
chunks sum back together in :func:`merge_campaign_grid_batches`.  A trial
range can be cut anywhere (:func:`split_trial_ranges`): the shm backend
concatenates its worker ranges' per-trial sums.

One exposure reduction, :meth:`ComputeBackend.sparse_masked_power_sums`,
feeds target selection.  Choosing targets and resolving them into points is
the engine's job (:mod:`repro.faults.engine`), never a kernel's.

The contract every implementation must honor:

- **Determinism per backend.** Given identical arguments (including the
  seed), repeated calls return identical results.
- **One campaign stream.** The campaign kernel draws from the counter-based
  :func:`campaign_uniform` stream, so every backend and every trial or row
  partition read the same uniforms; verdicts and counts agree exactly, and
  the power sums are bit-identical whenever they are exact (dyadic powers,
  as in every shipped scenario).  The exposure reduction adds in ascending
  row order on every backend, so it is bit-identical for any powers.
- **One market-choice stream.** :meth:`ComputeBackend.market_choices`
  draws replica ``index``'s choice in market ``m`` from
  ``campaign_uniform(seed, index * M + m)`` and turns it into an index with
  :func:`market_choice`, so sampled populations are identical on every
  backend and for every chunking of the replica range.
- **One census stream.** :meth:`ComputeBackend.violation_trials` draws
  trial ``t``'s configuration ``i`` (of ``n`` shares, descending) from
  ``campaign_uniform(seed, t * n + i)``, so census results are identical on
  every backend: each trial adds its first ``exploit_budget`` vulnerable
  shares left to right from ``0.0`` and ``compromised_total`` is the
  ``math.fsum`` of the per-trial sums, which no trial chunking can change.
  Each call judges every tolerance it is given on one draw, so a
  BFT/majority pair costs one census draw.
"""

from __future__ import annotations

import abc
import array as _stdlib_array
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

#: Slack applied when a compromised-power *fraction* is compared against a
#: tolerance: a trial violates safety when
#: ``compromised / total >= tolerance - CAMPAIGN_FRACTION_SLACK``.
CAMPAIGN_FRACTION_SLACK = 1e-12

# -- counter-based campaign RNG ------------------------------------------------
#
# The campaign, census and market-choice kernels draw from a *counter-based*
# splitmix64 stream instead of a sequential generator: uniform #n depends
# only on (seed, n), never on how many draws came before it.  That is what
# makes the batched NumPy kernels and the scalar fallback bit-identical —
# they visit cells in different orders, skip different cells, and still read
# the exact same uniform for each one.

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


#: One market as :meth:`ComputeBackend.market_choices` takes it: the shares'
#: total and their running sums, each added left to right once.
MarketCumulative = Tuple[float, Sequence[float]]


def market_choice(total: float, running: Sequence[float], u: float) -> int:
    """Index of the market choice at quantile ``u`` in ``[0, 1)``.

    The first choice whose running (unnormalized) share sum exceeds
    ``u * total``.  The running sums never decrease, so bisecting them finds
    the index a left-to-right walk would, zero-share entries and ties at
    ``u * total == running[i]`` included; a target past the last sum
    (rounding) clamps to the last choice.  This is the scalar reference the
    array kernels reproduce with ``searchsorted(..., side="right")``.
    """
    return min(bisect_right(running, u * total), len(running) - 1)


@dataclass(frozen=True)
class TrialBatchResult:
    """Aggregate outcome of a batch of Monte-Carlo vulnerability trials.

    Attributes:
        trials: number of trials simulated.
        violations: per tolerance of the call, aligned with its
            ``tolerances``, the trials in which compromised power reached it;
            every tolerance judges the same draws.
        compromised_total: sum of compromised power fractions over all trials
            (``compromised_total / trials`` is the mean compromised fraction).
    """

    trials: int
    violations: Tuple[int, ...]
    compromised_total: float


@dataclass(frozen=True)
class ResolvedGridPoint:
    """One campaign scenario as the campaign kernel takes it.

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
    ``success_probabilities`` and ``disclosed_at`` are per column.  Cell
    ``(r, v)`` is exposed exactly when ``v`` appears in row ``r``'s index
    slice.  It is the one exposure layout the campaign kernel and the
    exposure reduction take; :meth:`from_dense` packs a 0/1 matrix.

    Storage is whatever integer/float sequences the caller provides; the
    :func:`from_rows` constructor packs stdlib ``array`` buffers (``'q'`` and
    ``'d'`` typecodes), which keep a million-replica structure in tens of
    megabytes, pickle compactly, and convert to NumPy zero-copy.  Treat a
    constructed instance as immutable — kernels cache the structural
    validation on it.
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

    Both fields hold the backend's array type (tuples on the pure-Python
    backend, NumPy arrays on the array backends), so compare partials field
    by field through ``tolist()`` or ``list()``: dataclass ``==`` raises on
    arrays.
    """

    per_trial_compromised: Sequence[float]
    per_vulnerability_totals: Sequence[float]


def add_elementwise(left: Sequence[float], right: Sequence[float]) -> Sequence[float]:
    """``left + right`` position by position, for tuples and arrays alike.

    ``+`` concatenates tuples, so tuples add through ``map``; arrays add
    natively.  Each position is one float64 addition either way.
    """
    if isinstance(left, tuple):
        return tuple(map(operator.add, left, right))
    return left + right


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
    merged = list(chunks[0])
    for chunk in chunks[1:]:
        if len(chunk) != len(merged):
            raise BackendError(
                "sparse partial chunks disagree on the grid point count"
            )
        for position, partial in enumerate(chunk):
            total = merged[position]
            if len(partial.per_trial_compromised) != len(
                total.per_trial_compromised
            ) or len(partial.per_vulnerability_totals) != len(
                total.per_vulnerability_totals
            ):
                raise BackendError(
                    "sparse partial chunks disagree on trial or column counts"
                )
            merged[position] = SparseGridPartial(
                per_trial_compromised=add_elementwise(
                    total.per_trial_compromised, partial.per_trial_compromised
                ),
                per_vulnerability_totals=add_elementwise(
                    total.per_vulnerability_totals,
                    partial.per_vulnerability_totals,
                ),
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

    The scalar reference of :meth:`ComputeBackend.campaign_verdicts`: walks
    the trials in order, accumulating ``compromised_total`` and counting a
    violation whenever ``compromised / total_power`` reaches a tolerance
    (slack :data:`CAMPAIGN_FRACTION_SLACK`).  A partial that does not
    hold exactly ``trials`` per-trial sums is rejected (its verdicts would be
    divided by trials that never ran), and so is a total power that is not
    positive and finite.
    """
    _check_trial_sums(partial, trials, total_power)
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
        per_vulnerability_totals=tuple(partial.per_vulnerability_totals),
    )


# -- trial-range partitions ----------------------------------------------------


def split_trial_ranges(trials: int, shards: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``trials`` into ``shards`` contiguous ``(offset, count)`` ranges.

    The first ``trials % shards`` ranges are one trial longer; empty ranges
    are dropped (sharding 5 trials 8 ways yields 5 ranges).  Because the
    campaign kernels are counter-based, a shard computing its range with
    ``trial_offset=offset`` draws exactly the uniforms the serial run draws
    for those trials — the ranges partition the serial trial sequence.
    """
    from repro.core.exceptions import FaultModelError

    if trials <= 0:
        raise FaultModelError(f"trial count must be positive, got {trials}")
    if shards <= 0:
        raise FaultModelError(f"shard count must be positive, got {shards}")
    base, remainder = divmod(trials, shards)
    ranges = []
    offset = 0
    for shard in range(shards):
        count = base + (1 if shard < remainder else 0)
        if count == 0:
            continue
        ranges.append((offset, count))
        offset += count
    return tuple(ranges)


def merge_campaign_grid_batches(
    batches: Sequence[Sequence[GridPointResult]],
) -> Tuple[GridPointResult, ...]:
    """Sum per-chunk (or per-shard) grid results point by point.

    Violation and trial counts are integers, so their sums are always exact.
    The power totals are float sums; summing chunks in offset order matches
    the serial accumulation bit for bit whenever the per-trial contributions
    are dyadic rationals (every shipped scenario uses power 1.0 per replica),
    and to float tolerance otherwise.  All batches must describe the same
    grid (same point count, columns and tolerance widths).
    """
    from repro.core.exceptions import FaultModelError

    if not batches:
        raise FaultModelError("cannot merge zero grid batches")
    first = batches[0]
    for other in batches[1:]:
        if len(other) != len(first):
            raise FaultModelError(
                f"grid batches disagree on point count: {len(first)} != {len(other)}"
            )
        for left, right in zip(first, other):
            if left.columns != right.columns or len(left.violations) != len(
                right.violations
            ):
                raise FaultModelError(
                    "grid batches disagree on a point's columns or tolerances"
                )
    merged = []
    for index, point in enumerate(first):
        trials = sum(batch[index].trials for batch in batches)
        violations = tuple(
            sum(batch[index].violations[k] for batch in batches)
            for k in range(len(point.violations))
        )
        compromised_total = 0.0
        per_vulnerability = [0.0] * len(point.per_vulnerability_totals)
        for batch in batches:
            compromised_total += batch[index].compromised_total
            for column, total in enumerate(batch[index].per_vulnerability_totals):
                per_vulnerability[column] += total
        merged.append(
            GridPointResult(
                trials=trials,
                columns=point.columns,
                violations=violations,
                compromised_total=compromised_total,
                per_vulnerability_totals=tuple(per_vulnerability),
            )
        )
    return tuple(merged)


class ComputeBackend(abc.ABC):
    """Numeric kernel provider for the analysis layer.

    Subclasses are stateless; one shared instance per backend is cached by
    :func:`repro.backend.get_backend`.
    """

    #: Registry name of the backend ("python", "numpy", ...).
    name: str = "abstract"

    @classmethod
    def availability_error(cls) -> Optional[str]:
        """Why the backend is unavailable, or ``None`` when it can run.

        Backends with optional dependencies override this to surface the
        captured import/probe error; ``repro.cli backends`` prints it so an
        operator sees *why* a backend is missing, not just that it is.
        """
        return None

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend can run in the current environment."""
        return cls.availability_error() is None

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
        tolerances: Sequence[float],
    ) -> TrialBatchResult:
        """Run ``trials`` independent vulnerability scenarios.

        Configuration ``i`` of trial ``t`` is vulnerable exactly when
        ``campaign_uniform(seed, t * len(shares) + i) < vulnerability_probability``.
        A trial's compromised share is its first ``exploit_budget``
        vulnerable shares, added left to right from ``0.0``;
        ``compromised_total`` is :func:`math.fsum` of those per-trial values
        and a trial violates a tolerance when its share is ``>=`` it.  A
        trial's draws after its last pick change nothing, so kernels may
        skip them.

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
            seed: the census stream's seed (any integer, taken modulo 2^64
                as in :func:`campaign_uniform`).
            tolerances: compromised-power fractions at which a trial counts
                as a safety violation; each is judged on the same draws, and
                ``violations`` is aligned with them.
        """

    # -- market-choice kernel ---------------------------------------------------

    @abc.abstractmethod
    def market_choices(
        self,
        seed: int,
        start: int,
        stop: int,
        markets: Sequence[MarketCumulative],
    ) -> Sequence[Tuple[int, ...]]:
        """Market choice indices of replicas ``start .. stop - 1``, one tuple each.

        Replica ``index`` picks ``market_choice(total_m, running_m, u)`` in
        market ``m`` with ``u = campaign_uniform(seed, index * M + m)`` and
        ``M = len(markets)``: a pure function of ``(seed, index)``, so any
        replica range can be drawn on its own and every backend returns the
        same choices.
        """

    # -- campaign kernel --------------------------------------------------------

    @abc.abstractmethod
    def sparse_masked_power_sums(
        self, sparse: SparseExposure
    ) -> Tuple[float, ...]:
        """Per-column exposed-power reduction over a CSR exposure.

        Each vulnerability's exposed power — the ``f_t^i`` upper bound
        before exploit reliability — summed over the replicas whose row slice
        contains its column.  Every backend adds in ascending row order, so
        the sums are bit-identical across backends for any powers.
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

        In every trial, each exposed cell ``(r, c)`` of point ``p`` is
        independently compromised with probability ``p.probabilities[c]``; a
        replica compromised through *any* column contributes its power once
        to the trial's compromised sum (and to each relevant per-column
        ``f_t^i`` total).  ``sparse`` holds rows ``row_offset .. row_offset +
        sparse.replica_count - 1`` of a logical ``total_rows``-replica
        exposure (``total_rows=None`` means the structure is the whole
        population), and the exploit indicator for trial ``t`` and local cell
        ``(r, c)`` is::

            campaign_uniform(p.seed,
                             (trial_offset + t) * total_rows * V_p
                             + (row_offset + r) * V_p + c)
                < p.probabilities[c]

        with ``V_p = len(p.columns)`` and ``p.columns`` indexing ``sparse``'s
        column space.  Both the trial and the row counter are global, so
        partitioning the rows (or the trials) across calls and merging the
        partials reproduces the unpartitioned sums, and a retried range is
        bit-identical to its first attempt.

        Returns one :class:`SparseGridPartial` per point, in the backend's
        array type; :meth:`campaign_verdicts` judges them once every row
        range is merged.
        """

    def campaign_verdicts(
        self,
        partials: Sequence[SparseGridPartial],
        points: Sequence[ResolvedGridPoint],
        *,
        trials: int,
        total_power: float,
    ) -> Tuple[GridPointResult, ...]:
        """Judge fully merged partials: one :class:`GridPointResult` per point.

        A trial violates ``tolerances[k]`` when its compromised fraction of
        ``total_power`` reaches it (slack :data:`CAMPAIGN_FRACTION_SLACK`);
        every tolerance of a point judges the same draws, so a BFT/majority
        pair costs one draw.  This default is the scalar reference, one
        :func:`finalize_sparse_point` per point; array backends take every
        point's verdicts in one vectorized compare and add the per-trial sums
        in the same trial order.
        """
        validate_verdict_arguments(
            partials, points, trials=trials, total_power=total_power
        )
        return tuple(
            finalize_sparse_point(
                partial,
                trials=trials,
                columns=point.columns,
                tolerances=point.tolerances,
                total_power=total_power,
            )
            for point, partial in zip(points, partials)
        )

    # Alias of sparse_grid_partials: perfbench/workloads.py:53 wraps it by name.
    def campaign_grid(self, *args, **kwargs):
        return self.sparse_grid_partials(*args, **kwargs)

    # Alias of sparse_masked_power_sums: perfbench/workloads.py:53 wraps it by name.
    def masked_power_sums(self, *args, **kwargs):
        return self.sparse_masked_power_sums(*args, **kwargs)

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


def validate_trial_arguments(
    shares: Sequence[float],
    *,
    vulnerability_probability: float,
    exploit_budget: int,
    trials: int,
    tolerances: Sequence[float],
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
    if len(tolerances) == 0:
        raise BackendError("violation_trials needs at least one tolerance")
    for tolerance in tolerances:
        if not 0.0 < tolerance <= 1.0:  # also rejects NaN
            raise BackendError(f"tolerance must be in (0, 1], got {tolerance}")
    if any(later > earlier for earlier, later in zip(shares, shares[1:])):
        raise BackendError("shares must be sorted in descending order")


def validate_market_choice_arguments(
    start: int, stop: int, markets: Sequence[MarketCumulative]
) -> None:
    """Shared validation for :meth:`ComputeBackend.market_choices`."""
    from repro.core.exceptions import BackendError

    if not 0 <= start <= stop:
        raise BackendError(
            f"replica range [{start}, {stop}) must be non-negative and ordered"
        )
    if len(markets) == 0:
        raise BackendError("market_choices needs at least one market")
    for total, running in markets:
        if len(running) == 0:
            raise BackendError("every market needs at least one choice")
        if not (math.isfinite(total) and total > 0):
            raise BackendError(
                f"a market's share total must be positive and finite, got {total}"
            )
        if not (
            0.0 <= running[0]
            and all(math.isfinite(value) for value in running)
            and all(later >= earlier for earlier, later in zip(running, running[1:]))
        ):
            raise BackendError(
                "a market's running share sums must be finite, non-negative "
                "and non-decreasing"
            )


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
    validate_grid_points(points, sparse.column_count)
    return total


def validate_verdict_arguments(
    partials: Sequence[SparseGridPartial],
    points: Sequence[ResolvedGridPoint],
    *,
    trials: int,
    total_power: float,
) -> None:
    """Shared validation for :meth:`ComputeBackend.campaign_verdicts`.

    One partial per point, each holding exactly ``trials`` per-trial sums
    (verdicts over other trials would be divided by trials that never ran),
    and a total power that is positive and finite.
    """
    from repro.core.exceptions import BackendError

    if len(partials) != len(points):
        raise BackendError(
            f"{len(partials)} partials for {len(points)} grid points"
        )
    for partial in partials:
        _check_trial_sums(partial, trials, total_power)


def _check_trial_sums(
    partial: SparseGridPartial, trials: int, total_power: float
) -> None:
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


def validate_grid_points(
    points: Sequence[ResolvedGridPoint], column_count: int
) -> None:
    """The point validator of the campaign kernel.

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
