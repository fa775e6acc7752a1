"""Decentralized pools / non-outsourceable mining as a diversity mitigation.

Section III-A suggests non-outsourceable mining puzzles and decentralized
mining pools as ways to undo the consensus-power concentration that pool
operators (and exchange custodians) create.  This experiment quantifies the
mitigation on the paper's own Example 1 snapshot:

- starting from the 02-Feb-2023 pool landscape (with each pool given a number
  of member miners proportional to its size), it decentralizes the k largest
  pools for k = 0..17 and reports the census entropy, the largest fault
  domain and the hash power a small coalition of operators can still gather;
- the k = 0 row is exactly the Figure 1 situation, and the k = 17 row is the
  fully non-outsourceable ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.report import Table
from repro.core.exceptions import ExperimentError
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
)
from repro.nakamoto.decentralized_pool import (
    decentralization_report,
    operator_takeover_fraction,
)
from repro.nakamoto.pool import pools_from_snapshot


@dataclass(frozen=True)
class DecentralizationRow:
    """Effect of decentralizing the ``decentralized_pools`` largest pools."""

    decentralized_pools: int
    entropy_bits: float
    largest_fault_domain: float
    effective_replicas: int
    coalition_takeover: float


@dataclass(frozen=True)
class DecentralizedPoolsResult:
    """The full k-largest-pools sweep."""

    members_per_percent: int
    coalition_size: int
    rows: Tuple[DecentralizationRow, ...]
    entropy_is_monotone: bool
    breaks_majority_at: int


def run_decentralized_pools(
    *,
    residual_miners: int = 100,
    members_per_pool: int = 20,
    coalition_size: int = 3,
    steps: Sequence[int] = (0, 1, 2, 3, 5, 10, 17),
) -> DecentralizedPoolsResult:
    """Run the decentralization sweep over the Example 1 pool landscape."""
    if members_per_pool < 1:
        raise ExperimentError("each pool needs at least one member")
    if coalition_size < 1:
        raise ExperimentError("the coalition needs at least one operator")
    if not steps or any(step < 0 or step > 17 for step in steps):
        raise ExperimentError("steps must name between 0 and 17 pools")
    pools, solo = pools_from_snapshot(
        residual_miners=residual_miners, members_per_pool=members_per_pool
    )
    ordered = sorted(pools, key=lambda pool: -pool.total_hash_power())

    rows: List[DecentralizationRow] = []
    breaks_majority_at = -1
    for step in steps:
        selected = [pool.pool_id for pool in ordered[:step]]
        report = decentralization_report(
            pools, solo, decentralized_pool_ids=selected
        )
        takeover = operator_takeover_fraction(
            pools, solo, coalition_size, decentralized_pool_ids=selected
        )
        rows.append(
            DecentralizationRow(
                decentralized_pools=step,
                entropy_bits=report.decentralized_entropy_bits,
                largest_fault_domain=report.decentralized_largest_share,
                effective_replicas=report.decentralized_replicas,
                coalition_takeover=takeover,
            )
        )
        if breaks_majority_at < 0 and takeover < 0.5:
            breaks_majority_at = step
    entropies = [row.entropy_bits for row in rows]
    return DecentralizedPoolsResult(
        members_per_percent=members_per_pool,
        coalition_size=coalition_size,
        rows=tuple(rows),
        entropy_is_monotone=all(
            later >= earlier - 1e-9 for earlier, later in zip(entropies, entropies[1:])
        ),
        breaks_majority_at=breaks_majority_at,
    )


def decentralization_table(result: DecentralizedPoolsResult) -> Table:
    """The sweep as a printable table."""
    table = Table(
        headers=(
            "decentralized pools (largest first)",
            "entropy (bits)",
            "largest fault domain",
            "effective replicas",
            f"top-{result.coalition_size} operator takeover",
        )
    )
    for row in result.rows:
        table.add_row(
            row.decentralized_pools,
            row.entropy_bits,
            row.largest_fault_domain,
            row.effective_replicas,
            row.coalition_takeover,
        )
    return table


@dataclass(frozen=True)
class DecentralizedPoolsParams:
    """Orchestrator parameters for the pool-decentralization sweep."""

    residual_miners: int = 100
    members_per_pool: int = 20
    coalition_size: int = 3
    steps: Tuple[int, ...] = (0, 1, 2, 3, 5, 10, 17)


def build_payload(params: DecentralizedPoolsParams) -> ResultPayload:
    """Run the decentralization sweep as a structured payload."""
    result = run_decentralized_pools(
        residual_miners=params.residual_miners,
        members_per_pool=params.members_per_pool,
        coalition_size=params.coalition_size,
        steps=tuple(params.steps),
    )
    table = decentralization_table(result)
    table.title = "decentralization_sweep"
    return ResultPayload(
        tables=(table,),
        metrics={
            "entropy_is_monotone": result.entropy_is_monotone,
            "breaks_majority_at": result.breaks_majority_at,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic decentralized-pools stdout report."""
    lines = [
        "Decentralized pools / non-outsourceable mining on the Example 1 snapshot "
        f"({result.params['members_per_pool']} members per pool)",
        result.tables[0].render(),
        "",
        "entropy grows with every decentralized pool : "
        f"{result.metrics['entropy_is_monotone']}",
    ]
    breaks_at = result.metrics["breaks_majority_at"]
    if breaks_at >= 0:
        lines.append(
            f"a top-{result.params['coalition_size']} operator coalition loses its "
            f"majority once the {breaks_at} largest pools are decentralized"
        )
    return "\n".join(lines)


SPEC = ExperimentSpec(
    experiment_id="decentralized_pools",
    title="Decentralized pools / non-outsourceable mining (Example 1 snapshot)",
    build=build_payload,
    render=render_result,
    params_type=DecentralizedPoolsParams,
    tags=("extension", "nakamoto"),
)
