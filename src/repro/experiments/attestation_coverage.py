"""Configuration discovery via remote attestation (Section III-B).

The experiment builds a replica population from the synthetic ecosystem,
attests a varying fraction of it through the simulated TPM/TEE pipeline and
reports what the resulting registry can and cannot tell a diversity monitor:

- the attested census entropy versus the ground-truth census entropy;
- the fraction of voting power whose configuration remains unknown (the
  conservative analysis must treat it as one shared fault domain);
- the number of alerts the diversity monitor raises on the registry view.

It demonstrates the paper's Challenge 1: without broad attestation coverage,
the measurable diversity underestimates badly and the unknown mass dominates
the worst-case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.report import Table
from repro.attestation.device import AttestationDevice, DeviceType
from repro.attestation.quote import produce_quote
from repro.attestation.registry import AttestationRegistry
from repro.attestation.verifier import AttestationVerifier
from repro.core.exceptions import ExperimentError
from repro.core.population import ReplicaPopulation
from repro.datasets.software_ecosystem import SyntheticEcosystem, default_ecosystem
from repro.diversity.monitor import DiversityMonitor
from repro.experiments.orchestrator import (
    ExperimentResult,
    ExperimentSpec,
    ResultPayload,
)


@dataclass(frozen=True)
class CoverageRow:
    """Registry quality at one attestation-coverage level."""

    attested_fraction: float
    true_entropy_bits: float
    attested_census_entropy_bits: float
    unknown_power_fraction: float
    monitor_alerts: int


@dataclass(frozen=True)
class AttestationCoverageResult:
    """The coverage sweep."""

    population_size: int
    rows: Tuple[CoverageRow, ...]


def _build_registry(
    population: ReplicaPopulation, attested_fraction: float
) -> AttestationRegistry:
    """Attest the first ``attested_fraction`` of the population; declare the rest."""
    verifier = AttestationVerifier()
    registry = AttestationRegistry(verifier)
    replicas = population.replicas()
    attested_count = round(len(replicas) * attested_fraction)
    for index, replica in enumerate(replicas):
        if index < attested_count:
            device = AttestationDevice(
                device_id=f"dev-{replica.replica_id}", device_type=DeviceType.TPM
            )
            verifier.register_device(device)
            nonce = verifier.issue_nonce()
            quote = produce_quote(device, replica.replica_id, replica.configuration, nonce)
            registry.register_attested(quote, power=replica.power)
        else:
            registry.register_declared(
                replica.replica_id, replica.configuration, power=replica.power
            )
    return registry


def run_attestation_coverage(
    *,
    population_size: int = 300,
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
    ecosystem: SyntheticEcosystem = None,
    seed: int = 11,
) -> AttestationCoverageResult:
    """Run the attestation-coverage sweep."""
    if population_size < 10:
        raise ExperimentError("the population should have at least 10 replicas")
    if not fractions:
        raise ExperimentError("at least one coverage fraction is required")
    ecosystem = ecosystem or default_ecosystem()
    population = ecosystem.sample_population(population_size, seed=seed)
    true_entropy = population.entropy()
    rows = []
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ExperimentError(f"coverage fraction must be in [0, 1], got {fraction}")
        registry = _build_registry(population, fraction)
        attested_census = registry.census(attested_only=True) if fraction > 0 else None
        monitor = DiversityMonitor()
        full_census = registry.census()
        alerts = monitor.evaluate(full_census)
        unknown_fraction = 1.0 - registry.attested_fraction()
        rows.append(
            CoverageRow(
                attested_fraction=fraction,
                true_entropy_bits=true_entropy,
                attested_census_entropy_bits=(
                    attested_census.entropy() if attested_census is not None else 0.0
                ),
                unknown_power_fraction=unknown_fraction,
                monitor_alerts=len(alerts),
            )
        )
    return AttestationCoverageResult(population_size=population_size, rows=tuple(rows))


def coverage_table(result: AttestationCoverageResult) -> Table:
    """The sweep as a printable table."""
    table = Table(
        headers=(
            "attested fraction",
            "true entropy (bits)",
            "attested census entropy",
            "unknown power fraction",
            "monitor alerts",
        )
    )
    for row in result.rows:
        table.add_row(
            row.attested_fraction,
            row.true_entropy_bits,
            row.attested_census_entropy_bits,
            row.unknown_power_fraction,
            row.monitor_alerts,
        )
    return table


@dataclass(frozen=True)
class AttestationCoverageParams:
    """Orchestrator parameters for the attestation-coverage sweep."""

    population_size: int = 300
    fractions: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    seed: int = 11


def build_payload(params: AttestationCoverageParams) -> ResultPayload:
    """Run the coverage sweep as a structured payload."""
    result = run_attestation_coverage(
        population_size=params.population_size,
        fractions=tuple(params.fractions),
        seed=params.seed,
    )
    table = coverage_table(result)
    table.title = "coverage_sweep"
    full = result.rows[-1]
    return ResultPayload(
        tables=(table,),
        metrics={
            "true_entropy_bits": full.true_entropy_bits,
            "full_coverage_unknown_fraction": full.unknown_power_fraction,
        },
    )


def render_result(result: ExperimentResult) -> str:
    """The classic attestation-coverage stdout report."""
    return "\n".join(
        [
            f"Attestation coverage sweep over {result.params['population_size']} replicas",
            result.tables[0].render(),
        ]
    )


SPEC = ExperimentSpec(
    experiment_id="attestation_coverage",
    title="Configuration discovery via remote attestation (coverage sweep)",
    build=build_payload,
    render=render_result,
    params_type=AttestationCoverageParams,
    tags=("extension", "attestation"),
)
