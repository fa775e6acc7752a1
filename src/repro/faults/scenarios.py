"""Parameterized campaign scenario generators.

A *scenario* bundles the two inputs every exploit campaign needs — a replica
population and a vulnerability catalog — generated from a handful of
JSON-scalar knobs: which synthetic ecosystem the replicas sample their
configurations from, how many replicas there are, how reliable the
adversary's exploits are, and (for permissionless settings) how much
join/leave churn the population has absorbed.

Keeping the generators here, below the experiment layer, lets the campaign
experiments stay thin ``params -> tables`` adapters over
:class:`~repro.faults.engine.BatchCampaignEngine`: a new sweep is "pick a
generator, pick the knobs, register a spec", and the orchestrator provides
caching, sharding, golden pinning and HTTP serving for free.

All generated replicas carry power 1.0 (the replica-count regime), so every
power reduction is exact in float64 and the campaign kernels stay
bit-identical across compute backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction
from repro.faults.engine import GridPointRequest
from repro.datasets.generators import (
    DEFAULT_REPLICA_CHUNK_SIZE,
    stream_replica_chunks,
)
from repro.datasets.software_ecosystem import (
    SyntheticEcosystem,
    default_ecosystem,
    diverse_ecosystem,
    skewed_ecosystem,
)
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.matrix import PopulationMatrix
from repro.faults.vulnerability import Severity
from repro.permissionless.churn import ChurnModel

#: Named ecosystems a scenario can sample replica configurations from.
ECOSYSTEM_GENERATORS = {
    "default": default_ecosystem,
    "skewed": skewed_ecosystem,
    "diverse": diverse_ecosystem,
}


def resolve_ecosystem(name: str) -> SyntheticEcosystem:
    """Look an ecosystem generator up by name (usage error when unknown)."""
    try:
        generator = ECOSYSTEM_GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(ECOSYSTEM_GENERATORS))
        raise FaultModelError(
            f"unknown ecosystem {name!r} (known: {known})"
        ) from None
    return generator()


@dataclass(frozen=True)
class CampaignScenario:
    """One concrete population × catalog pair a campaign sweep runs against.

    Attributes:
        label: human-readable description for tables and reports.
        population: the replica population (power 1.0 per replica).
        catalog: one vulnerability per distinct component in the population,
            at the scenario's exploit-success probability.
    """

    label: str
    population: ReplicaPopulation
    catalog: VulnerabilityCatalog


def ecosystem_scenario(
    *,
    ecosystem: str = "skewed",
    population_size: int = 48,
    seed: int = 0,
    exploit_probability: float = 1.0,
    severity: Severity = Severity.HIGH,
    label: str = None,
) -> CampaignScenario:
    """Sample a population from a named ecosystem and catalog its components.

    The catalog takes the worst-case stance of the experiments: every
    distinct component in the sampled population could harbor one exploitable
    flaw, succeeding per exposed replica with ``exploit_probability``.
    """
    if population_size <= 0:
        raise FaultModelError(
            f"population size must be positive, got {population_size}"
        )
    if not 0.0 <= exploit_probability <= 1.0:
        raise FaultModelError(
            f"exploit probability must be in [0, 1], got {exploit_probability}"
        )
    population = resolve_ecosystem(ecosystem).sample_population(
        population_size, seed=seed
    )
    catalog = VulnerabilityCatalog.for_population(
        population, severity=severity, exploit_probability=exploit_probability
    )
    return CampaignScenario(
        label=label
        or f"{ecosystem} ecosystem, {population_size} replicas, "
        f"p_exploit={exploit_probability:g}",
        population=population,
        catalog=catalog,
    )


def churned_scenarios(
    *,
    ecosystem: str = "default",
    population_size: int = 40,
    steps: int = 120,
    checkpoints: int = 4,
    join_rate: float = 0.6,
    leave_rate: float = 0.35,
    churn_seed: int = 5,
    population_seed: int = 0,
    exploit_probability: float = 1.0,
    severity: Severity = Severity.HIGH,
) -> List[Tuple[int, CampaignScenario]]:
    """A churn trajectory: scenario snapshots at evenly spaced churn steps.

    Starting from an ecosystem-sampled population, one continuous
    :class:`~repro.permissionless.churn.ChurnModel` run is split into
    ``checkpoints`` equal segments; after each segment (and at step 0) the
    population is snapshotted and re-cataloged, so a campaign sweep can chart
    how the violation probability drifts as the census drifts (Challenge 1:
    diversity in a permissionless system is a moving target).

    Returns ``(step, scenario)`` pairs, step 0 first.
    """
    if steps <= 0:
        raise FaultModelError(f"churn steps must be positive, got {steps}")
    if checkpoints <= 0 or checkpoints > steps:
        raise FaultModelError(
            f"checkpoints must be in 1..steps, got {checkpoints} for {steps} steps"
        )
    ecosystem_instance = resolve_ecosystem(ecosystem)
    population = ecosystem_instance.sample_population(
        population_size, seed=population_seed
    )
    model = ChurnModel(
        ecosystem_instance,
        join_rate=join_rate,
        leave_rate=leave_rate,
        seed=churn_seed,
    )

    def snapshot(step: int) -> Tuple[int, CampaignScenario]:
        frozen = ReplicaPopulation(population.replicas(), regime=population.regime)
        catalog = VulnerabilityCatalog.for_population(
            frozen, severity=severity, exploit_probability=exploit_probability
        )
        return (
            step,
            CampaignScenario(
                label=f"{ecosystem} ecosystem after {step} churn steps "
                f"({len(frozen)} replicas)",
                population=frozen,
                catalog=catalog,
            ),
        )

    trajectory = [snapshot(0)]
    completed = 0
    for index in range(checkpoints):
        # Spread the steps evenly; the churn RNG stream is continuous across
        # segments, so the trajectory equals one uninterrupted run.
        target = round((index + 1) * steps / checkpoints)
        segment = target - completed
        if segment > 0:
            model.run(population, segment)
            completed = target
        trajectory.append(snapshot(completed))
    return trajectory


# -- streaming sparse scenarios ------------------------------------------------


def ecosystem_catalog(
    ecosystem_instance: SyntheticEcosystem,
    *,
    severity: Severity = Severity.HIGH,
    exploit_probability: float = 1.0,
) -> VulnerabilityCatalog:
    """One vulnerability per component the ecosystem offers, market-major.

    The streaming analogue of ``VulnerabilityCatalog.for_population``: the
    catalog is fixed by the ecosystem alone, so it exists before — or
    without — any materialized population, which is the precondition for
    streaming a million replicas straight into a sparse matrix.
    """
    return VulnerabilityCatalog.one_per_component(
        ecosystem_instance.components(),
        severity=severity,
        exploit_probability=exploit_probability,
    )


def sparse_ecosystem_matrix(
    *,
    ecosystem: str = "default",
    population_size: int,
    seed: int = 0,
    exploit_probability: float = 1.0,
    severity: Severity = Severity.HIGH,
    chunk_size: int = DEFAULT_REPLICA_CHUNK_SIZE,
) -> Tuple[PopulationMatrix, VulnerabilityCatalog]:
    """Stream an ecosystem population straight into a sparse campaign matrix.

    Replica chunks flow from
    :func:`repro.datasets.generators.stream_replica_chunks` into
    :meth:`~repro.faults.matrix.PopulationMatrix.from_replica_chunks`, so the
    population is never materialized and peak memory is bounded by one chunk
    plus the CSR arrays — the build path the ``ecosystem_scale`` experiment
    uses at 10⁶ replicas and beyond.  At overlapping scales the
    result is bit-identical to ``PopulationMatrix.build`` on the
    equivalently-sampled population with the same catalog.
    """
    if population_size <= 0:
        raise FaultModelError(
            f"population size must be positive, got {population_size}"
        )
    if not 0.0 <= exploit_probability <= 1.0:
        raise FaultModelError(
            f"exploit probability must be in [0, 1], got {exploit_probability}"
        )
    ecosystem_instance = resolve_ecosystem(ecosystem)
    catalog = ecosystem_catalog(
        ecosystem_instance,
        severity=severity,
        exploit_probability=exploit_probability,
    )
    matrix = PopulationMatrix.from_replica_chunks(
        stream_replica_chunks(
            ecosystem_instance,
            population_size,
            seed=seed,
            chunk_size=chunk_size,
        ),
        catalog,
    )
    return matrix, catalog


# -- fused grid construction ---------------------------------------------------
#
# The campaign sweeps used to loop one BatchCampaignEngine call per
# (scenario point, protocol family).  These helpers phrase each sweep as ONE
# grid of :class:`~repro.faults.engine.GridPointRequest` objects instead, so
# :meth:`~repro.faults.engine.GridCampaignEngine.estimate_grid` can run the
# whole sweep as a single fused kernel call — bit-identical to the loop
# because point ``i`` keeps the loop's ``seed + i`` sub-stream and every
# family judges the same shared draws.


def family_tolerances(families: Sequence[ProtocolFamily]) -> Tuple[float, ...]:
    """The tolerated fault fractions a grid point judges its trials at."""
    if not families:
        raise FaultModelError("at least one protocol family is required")
    return tuple(tolerated_fault_fraction(family) for family in families)


def budget_grid(
    budgets: Sequence[int],
    *,
    families: Sequence[ProtocolFamily],
) -> Tuple[GridPointRequest, ...]:
    """An adversary-budget sweep as one fused grid (one point per budget).

    Point ``i`` exploits the ``budgets[i]`` most damaging vulnerabilities at
    seed offset ``i``, judged at every family's tolerance on the same draws —
    a BFT/majority pair costs one exploit draw instead of two.
    """
    if not budgets:
        raise FaultModelError("at least one adversary budget is required")
    if any(budget <= 0 for budget in budgets):
        raise FaultModelError("adversary budgets must be positive")
    tolerances = family_tolerances(families)
    return tuple(
        GridPointRequest(
            tolerances=tolerances,
            worst_case=budget,
            seed_offset=index,
        )
        for index, budget in enumerate(budgets)
    )


def reliability_grid(
    probabilities: Sequence[float],
    *,
    budget: int,
    families: Sequence[ProtocolFamily],
) -> Tuple[GridPointRequest, ...]:
    """An exploit-reliability sweep as one fused grid over one population.

    Worst-case target selection depends only on exposure and power — never on
    success probabilities — so the whole sweep shares a single engine/catalog
    and each point simply overrides the per-replica success probability
    (matching the looped sweep's one-catalog-per-probability scenarios bit
    for bit, without rebuilding populations).
    """
    if not probabilities:
        raise FaultModelError("at least one exploit probability is required")
    if budget <= 0:
        raise FaultModelError(f"exploit budget must be positive, got {budget}")
    tolerances = family_tolerances(families)
    return tuple(
        GridPointRequest(
            tolerances=tolerances,
            worst_case=budget,
            success_probability=probability,
            seed_offset=index,
        )
        for index, probability in enumerate(probabilities)
    )


def churn_checkpoint_grid(
    checkpoint_index: int,
    *,
    budget: int,
    families: Sequence[ProtocolFamily],
) -> Tuple[GridPointRequest, ...]:
    """One churn checkpoint as a single-point grid.

    Churn snapshots have *different* populations, so each checkpoint runs its
    own engine; the grid seam still buys the multi-tolerance verdict and the
    fused kernel.  ``seed_offset=checkpoint_index`` keeps the checkpoint's
    ``seed + index`` sub-stream from the looped sweep.
    """
    if checkpoint_index < 0:
        raise FaultModelError(
            f"checkpoint index must be non-negative, got {checkpoint_index}"
        )
    if budget <= 0:
        raise FaultModelError(f"exploit budget must be positive, got {budget}")
    return (
        GridPointRequest(
            tolerances=family_tolerances(families),
            worst_case=budget,
            seed_offset=checkpoint_index,
        ),
    )
