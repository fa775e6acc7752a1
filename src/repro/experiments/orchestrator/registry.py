"""The experiment registry: every spec, paper artifacts first, then extensions.

This module is the only orchestrator module that imports the experiment
modules (each of which imports ``orchestrator.spec``/``orchestrator.result``
for its ``SPEC`` definition), so it must never be imported from the package
``__init__`` — import it directly where a registry is needed (the CLI, the
result service, pool workers).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.exceptions import OrchestrationError
from repro.experiments import (
    attestation_coverage,
    campaign_budget,
    campaign_churn,
    campaign_reliability,
    component_exposure,
    decentralized_pools,
    diversity_ablation,
    ecosystem_scale,
    example1,
    figure1,
    prop1,
    prop2,
    prop3,
    protocol_safety,
    safety_violation,
    two_class,
    vulnerability_window,
)
from repro.experiments.orchestrator.spec import ExperimentSpec

#: Every registered spec, in paper order (Figure 1 first, extensions last).
ALL_SPECS: Tuple[ExperimentSpec, ...] = (
    figure1.SPEC,
    example1.SPEC,
    prop1.SPEC,
    prop2.SPEC,
    prop3.SPEC,
    safety_violation.SPEC,
    attestation_coverage.SPEC,
    two_class.SPEC,
    protocol_safety.SPEC,
    diversity_ablation.SPEC,
    vulnerability_window.SPEC,
    decentralized_pools.SPEC,
    component_exposure.SPEC,
    campaign_budget.SPEC,
    campaign_reliability.SPEC,
    campaign_churn.SPEC,
    ecosystem_scale.SPEC,
)

_BY_ID: Dict[str, ExperimentSpec] = {spec.experiment_id: spec for spec in ALL_SPECS}
if len(_BY_ID) != len(ALL_SPECS):  # pragma: no cover - registration bug guard
    raise OrchestrationError("duplicate experiment ids in the registry")


def all_specs() -> Tuple[ExperimentSpec, ...]:
    """Every spec, in registry order."""
    return ALL_SPECS


def experiment_ids() -> List[str]:
    """The registered experiment ids, in registry order."""
    return [spec.experiment_id for spec in ALL_SPECS]


def known_tags() -> List[str]:
    """Every tag used by at least one spec, sorted."""
    return sorted({tag for spec in ALL_SPECS for tag in spec.tags})


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The spec registered under ``experiment_id``."""
    spec = _BY_ID.get(experiment_id)
    if spec is None:
        raise OrchestrationError(
            f"unknown experiment {experiment_id!r} "
            f"(known: {', '.join(experiment_ids())})"
        )
    return spec
