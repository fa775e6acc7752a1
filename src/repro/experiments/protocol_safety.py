"""End-to-end protocol validation: shared faults vs simulated consensus runs.

This experiment closes the loop between the analytical condition of Section
II-C and actual protocol executions:

1. Build a BFT replica deployment whose configurations come from either a
   *diverse* (planner-assigned) or a *monoculture* ecosystem.
2. Assume one exploitable vulnerability in the most popular component and run
   the exploit campaign to find which replicas turn Byzantine.
3. Run PBFT, the streamlined (HotStuff-style) protocol and the hybrid
   protocol with that fault schedule and record whether safety held.
4. Do the same on the Nakamoto side: compromise the mining pools running the
   vulnerable component and measure the double-spend success probability.

Expected shape: the monoculture deployments lose safety from a single
vulnerability (compromised power exceeds f / 50%), while the diverse
deployments stay safe — the paper's core argument, demonstrated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import Table
from repro.bft.runner import ConsensusRunResult, run_consensus
from repro.core.configuration import ComponentKind, ReplicaConfiguration
from repro.core.exceptions import ExperimentError
from repro.core.population import Replica, ReplicaPopulation
from repro.core.resilience import ProtocolFamily
from repro.faults.campaign import ExploitCampaign
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.injection import FaultSchedule
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
)
from repro.nakamoto.attack import majority_takeover
from repro.nakamoto.pool import pools_from_snapshot


@dataclass(frozen=True)
class ProtocolSafetyRow:
    """One (deployment, protocol) cell of the experiment."""

    deployment: str
    protocol: str
    replicas: int
    byzantine: int
    fault_bound: int
    condition_satisfied: bool
    safety_observed: bool


@dataclass(frozen=True)
class NakamotoSafetyRow:
    """The Nakamoto side of the experiment."""

    deployment: str
    compromised_fraction: float
    majority: bool
    double_spend_probability: float


@dataclass(frozen=True)
class ProtocolSafetyResult:
    """All BFT cells plus the Nakamoto rows."""

    bft_rows: Tuple[ProtocolSafetyRow, ...]
    nakamoto_rows: Tuple[NakamotoSafetyRow, ...]
    condition_predicts_safety: bool


def _diverse_population(count: int) -> ReplicaPopulation:
    """Each replica runs its own configuration (abundance 1)."""
    return ReplicaPopulation.with_unique_configurations(count, prefix="diverse")


def _shared_client_population(count: int, shared_indices: Sequence[int]) -> ReplicaPopulation:
    """Replicas at ``shared_indices`` run one dominant stack; the rest are unique.

    The shared indices are interleaved across the replica-id order so the
    honest survivors of a shared-component compromise end up on both sides of
    a Byzantine primary's equivocation split — the worst case for safety.
    """
    shared = ReplicaConfiguration.from_names(
        operating_system="linux", consensus_client="client-alpha", crypto_library="openssl"
    )
    shared_set = set(shared_indices)
    if any(index < 0 or index >= count for index in shared_set):
        raise ExperimentError("shared indices must address existing replicas")
    replicas = []
    for index in range(count):
        configuration = (
            shared if index in shared_set else ReplicaConfiguration.labeled(f"unique-{index}")
        )
        replicas.append(Replica(replica_id=f"replica-{index}", configuration=configuration))
    return ReplicaPopulation(replicas)


def _campaign_schedule(population: ReplicaPopulation) -> Tuple[FaultSchedule, int]:
    """Exploit the single most damaging vulnerability against ``population``.

    Target selection and fault-domain resolution run over the campaign's
    array-backed :class:`~repro.faults.matrix.PopulationMatrix` (one
    exposed-power reduction on the compute backend); with the catalog's
    deterministic exploits the outcome is identical to the scalar model.
    """
    catalog = VulnerabilityCatalog.for_population(population)
    campaign = ExploitCampaign(population, catalog)
    outcome = campaign.run_worst_case(max_vulnerabilities=1)
    return FaultSchedule.from_campaign(outcome), len(outcome.compromised_replicas)


def run_protocol_safety(
    *,
    replica_count: int = 7,
    protocols: Sequence[str] = ("pbft", "hotstuff", "hybrid"),
) -> ProtocolSafetyResult:
    """Run the end-to-end protocol-safety experiment."""
    if replica_count != 7:
        raise ExperimentError(
            "the experiment's deployments are laid out for exactly 7 replicas"
        )
    deployments: Dict[str, ReplicaPopulation] = {
        "diverse (unique configs)": _diverse_population(replica_count),
        "shared client on 2 of 7": _shared_client_population(replica_count, (0, 3)),
        "shared client on 3 of 7": _shared_client_population(replica_count, (0, 3, 5)),
        "shared client on 5 of 7": _shared_client_population(replica_count, (0, 2, 3, 5, 6)),
    }
    bft_rows: List[ProtocolSafetyRow] = []
    prediction_matches = True
    for name, population in deployments.items():
        schedule, byzantine_count = _campaign_schedule(population)
        for protocol in protocols:
            # The campaign compromises whole replicas; their trusted
            # components are assumed to stay intact (the trusted-hardware
            # fault domain is exercised separately in the hybrid tests).
            result: ConsensusRunResult = run_consensus(
                population,
                schedule,
                protocol=protocol,
            )
            condition = result.within_fault_bound
            bft_rows.append(
                ProtocolSafetyRow(
                    deployment=name,
                    protocol=protocol,
                    replicas=replica_count,
                    byzantine=byzantine_count,
                    fault_bound=result.quorum.fault_bound,
                    condition_satisfied=condition,
                    safety_observed=result.safety_ok,
                )
            )
            if condition and not result.safety_ok:
                # The condition guarantees safety; the converse need not hold.
                prediction_matches = False

    nakamoto_rows = _nakamoto_rows()
    return ProtocolSafetyResult(
        bft_rows=tuple(bft_rows),
        nakamoto_rows=tuple(nakamoto_rows),
        condition_predicts_safety=prediction_matches,
    )


def _nakamoto_rows() -> List[NakamotoSafetyRow]:
    """Compromise pool software under two diversity assumptions."""
    pools, solo = pools_from_snapshot(residual_miners=100)
    power = {pool.pool_id: pool.total_hash_power() for pool in pools}
    power.update({miner.miner_id: miner.hash_power for miner in solo})
    rows = []
    # Diverse pools: every pool runs unique software; one vulnerability only
    # captures the single largest pool.
    largest_pool = max(power, key=power.get)
    diverse = majority_takeover(power, [largest_pool])
    rows.append(
        NakamotoSafetyRow(
            deployment="diverse pools (1 pool compromised)",
            compromised_fraction=diverse.compromised_fraction,
            majority=diverse.majority,
            double_spend_probability=diverse.double_spend_probability,
        )
    )
    # Shared pool software: the top five pools run the same coordination
    # stack, so a single vulnerability captures all of them.
    top_five = sorted(power, key=power.get, reverse=True)[:5]
    shared = majority_takeover(power, top_five)
    rows.append(
        NakamotoSafetyRow(
            deployment="shared pool software (top-5 compromised)",
            compromised_fraction=shared.compromised_fraction,
            majority=shared.majority,
            double_spend_probability=shared.double_spend_probability,
        )
    )
    return rows


def protocol_safety_table(result: ProtocolSafetyResult) -> Table:
    """The BFT cells as a printable table."""
    table = Table(
        headers=(
            "deployment",
            "protocol",
            "byzantine",
            "fault bound f",
            "condition f >= faults",
            "safety observed",
        )
    )
    for row in result.bft_rows:
        table.add_row(
            row.deployment,
            row.protocol,
            row.byzantine,
            row.fault_bound,
            row.condition_satisfied,
            row.safety_observed,
        )
    return table


def nakamoto_table(result: ProtocolSafetyResult) -> Table:
    """The Nakamoto rows as a printable table."""
    table = Table(
        headers=(
            "deployment",
            "compromised hash fraction",
            "majority",
            "P[double spend, 6 conf]",
        )
    )
    for row in result.nakamoto_rows:
        table.add_row(
            row.deployment,
            row.compromised_fraction,
            row.majority,
            row.double_spend_probability,
        )
    return table


@dataclass(frozen=True)
class ProtocolSafetyParams:
    """Orchestrator parameters for the end-to-end protocol-safety runs."""

    replica_count: int = 7
    protocols: Tuple[str, ...] = ("pbft", "hotstuff", "hybrid")


def build_payload(params: ProtocolSafetyParams) -> ResultPayload:
    """Run the end-to-end experiment as a structured payload."""
    result = run_protocol_safety(
        replica_count=params.replica_count, protocols=tuple(params.protocols)
    )
    bft = protocol_safety_table(result)
    bft.title = "bft_safety"
    nakamoto = nakamoto_table(result)
    nakamoto.title = "nakamoto_safety"
    return ResultPayload(
        tables=(bft, nakamoto),
        metrics={"condition_predicts_safety": result.condition_predicts_safety},
    )


def render_result(result: ExperimentResult) -> str:
    """The classic protocol-safety stdout report (both tables)."""
    return "\n".join(
        [
            "End-to-end BFT safety under a single shared vulnerability",
            result.tables[0].render(),
            "",
            "Nakamoto: hash power captured through shared pool software",
            result.tables[1].render(),
            "",
            "the Section II-C condition predicted safety correctly: "
            f"{result.metrics['condition_predicts_safety']}",
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="protocol_safety",
    title="End-to-end protocol safety: shared faults vs simulated consensus",
    build=build_payload,
    render=render_result,
    params_type=ProtocolSafetyParams,
    tags=("extension", "protocols"),
)
