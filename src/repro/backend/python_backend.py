"""Dependency-free pure-Python compute backend.

It is the fallback that keeps the reproduction runnable on a bare Python
install, and the reference implementation the vectorized backends are
tested against: its census kernel walks each trial's shares left to right
over the counter stream and stops at the attacker's last pick, its campaign
verdicts are the base class's
:func:`~repro.backend.base.finalize_sparse_point` loop, and its market-choice
kernel is the scalar ``campaign_uniform`` + :func:`~repro.backend.base.market_choice`
loop of ``SyntheticEcosystem.choices_at``, one replica index at a time.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.backend.base import (
    ComputeBackend,
    MarketCumulative,
    ResolvedGridPoint,
    SparseExposure,
    SparseGridPartial,
    TrialBatchResult,
    _INV_2_53,
    _MASK64,
    _SPLITMIX_GAMMA,
    _SPLITMIX_MIX1,
    _SPLITMIX_MIX2,
    campaign_uniform,
    market_choice,
    validate_market_choice_arguments,
    validate_sparse_partial_arguments,
    validate_trial_arguments,
)


def _scalar_campaign_partials(
    exposed_rows: Sequence[Sequence[int]],
    powers: Sequence[float],
    probabilities: Sequence[float],
    *,
    trials: int,
    seed: int,
    trial_offset: int,
    row_offset: int,
    total_rows: int,
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The scalar campaign loop: per-trial compromised power and per-column totals.

    ``exposed_rows[c]`` lists the local replica rows exposed to local column
    ``c``, ascending.  Each trial walks the columns, then their exposed rows,
    then sums the compromised replicas' powers in ascending row order.  The
    uniform for cell ``(t, r, c)`` is drawn at the *global* counter index
    ``(trial_offset + t) * total_rows * V + (row_offset + r) * V + c``, so
    the same loop serves the whole population and any CSR row range.  The
    per-trial compromised powers are returned unjudged: the verdicts are
    taken once every row range is in.  The counter-based stream lets the
    loop visit *exposed* cells only — skipping a cell never shifts anyone
    else's uniform.
    """
    replica_count = len(powers)
    column_count = len(probabilities)
    seed64 = seed & _MASK64
    cells_per_trial = total_rows * column_count
    per_trial: List[float] = []
    per_vulnerability = [0.0] * column_count
    for trial in range(trials):
        base_index = (trial_offset + trial) * cells_per_trial
        hit = [False] * replica_count
        for column, probability in enumerate(probabilities):
            if probability <= 0.0:
                continue
            certain = probability >= 1.0
            column_power = 0.0
            for row in exposed_rows[column]:
                if not certain:
                    # Inline campaign_uniform (splitmix64) — the scalar hot
                    # loop, addressing the global (row_offset + row) cell.
                    z = (
                        seed64
                        + (
                            base_index
                            + (row_offset + row) * column_count
                            + column
                            + 1
                        )
                        * _SPLITMIX_GAMMA
                    ) & _MASK64
                    z = ((z ^ (z >> 30)) * _SPLITMIX_MIX1) & _MASK64
                    z = ((z ^ (z >> 27)) * _SPLITMIX_MIX2) & _MASK64
                    z ^= z >> 31
                    if (z >> 11) * _INV_2_53 >= probability:
                        continue
                column_power += powers[row]
                hit[row] = True
            per_vulnerability[column] += column_power
        compromised = 0.0
        for row in range(replica_count):
            if hit[row]:
                compromised += powers[row]
        per_trial.append(compromised)
    return tuple(per_trial), tuple(per_vulnerability)


class PythonBackend(ComputeBackend):
    """Scalar reference implementation of the compute kernels."""

    name = "python"

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
        validate_trial_arguments(
            shares,
            vulnerability_probability=vulnerability_probability,
            exploit_budget=exploit_budget,
            trials=trials,
            tolerances=tolerances,
        )
        violations = [0] * len(tolerances)
        per_trial = []
        for trial in range(trials):
            compromised = 0.0
            picked = 0
            counter = trial * len(shares)
            for share in shares:
                if picked == exploit_budget:
                    break
                if campaign_uniform(seed, counter) < vulnerability_probability:
                    compromised += share
                    picked += 1
                counter += 1
            per_trial.append(compromised)
            for position, tolerance in enumerate(tolerances):
                if compromised >= tolerance:
                    violations[position] += 1
        return TrialBatchResult(
            trials=trials,
            violations=tuple(violations),
            compromised_total=math.fsum(per_trial),
        )

    def market_choices(
        self,
        seed: int,
        start: int,
        stop: int,
        markets: Sequence[MarketCumulative],
    ) -> List[Tuple[int, ...]]:
        validate_market_choice_arguments(start, stop, markets)
        market_count = len(markets)
        return [
            tuple(
                market_choice(
                    total,
                    running,
                    campaign_uniform(seed, index * market_count + position),
                )
                for position, (total, running) in enumerate(markets)
            )
            for index in range(start, stop)
        ]

    def sparse_masked_power_sums(
        self, sparse: SparseExposure
    ) -> Tuple[float, ...]:
        sparse.validate()
        sums = [0.0] * sparse.column_count
        indptr = sparse.indptr
        indices = sparse.indices
        powers = sparse.powers
        # Ascending row order, as NumPy's bincount adds.
        for row in range(sparse.replica_count):
            power = powers[row]
            for position in range(indptr[row], indptr[row + 1]):
                sums[indices[position]] += power
        return tuple(sums)

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
        total = validate_sparse_partial_arguments(
            sparse,
            points,
            trials=trials,
            trial_offset=trial_offset,
            row_offset=row_offset,
            total_rows=total_rows,
        )
        indptr = sparse.indptr
        indices = sparse.indices
        results = []
        for point in points:
            # One CSR pass per point builds the per-local-column exposed-row
            # lists in ascending row order, the layout the scalar loop walks.
            local = [-1] * sparse.column_count
            for position, column in enumerate(point.columns):
                local[column] = position
            exposed_rows: Tuple[List[int], ...] = tuple(
                [] for _ in point.columns
            )
            for row in range(sparse.replica_count):
                for position in range(indptr[row], indptr[row + 1]):
                    slot = local[indices[position]]
                    if slot != -1:
                        exposed_rows[slot].append(row)
            per_trial, per_vulnerability = _scalar_campaign_partials(
                exposed_rows,
                sparse.powers,
                point.probabilities,
                trials=trials,
                seed=point.seed,
                trial_offset=trial_offset,
                row_offset=row_offset,
                total_rows=total,
            )
            results.append(
                SparseGridPartial(
                    per_trial_compromised=per_trial,
                    per_vulnerability_totals=per_vulnerability,
                )
            )
        return tuple(results)
