"""Experiment drivers: one module per figure / example / proposition.

Every module exposes a ``run_*`` function returning structured results and a
registered ``SPEC`` whose renderer prints the corresponding table or series;
``python -m repro.cli run <name>`` (or ``run --all``) regenerates them.
README's *Experiment orchestration* section describes how they are selected,
cached and pinned by golden snapshots.
"""

from repro.experiments.campaign_budget import run_campaign_budget
from repro.experiments.campaign_churn import run_campaign_churn
from repro.experiments.campaign_reliability import run_campaign_reliability
from repro.experiments.example1 import run_example1
from repro.experiments.figure1 import run_figure1
from repro.experiments.prop1 import run_proposition1
from repro.experiments.prop2 import run_proposition2
from repro.experiments.prop3 import run_proposition3
from repro.experiments.safety_violation import run_safety_violation
from repro.experiments.attestation_coverage import run_attestation_coverage
from repro.experiments.two_class import run_two_class
from repro.experiments.protocol_safety import run_protocol_safety
from repro.experiments.diversity_ablation import run_diversity_ablation
from repro.experiments.vulnerability_window import run_vulnerability_window
from repro.experiments.decentralized_pools import run_decentralized_pools
from repro.experiments.component_exposure import run_component_exposure
from repro.experiments.ecosystem_scale import run_ecosystem_scale

__all__ = [
    "run_attestation_coverage",
    "run_campaign_budget",
    "run_campaign_churn",
    "run_campaign_reliability",
    "run_component_exposure",
    "run_decentralized_pools",
    "run_diversity_ablation",
    "run_ecosystem_scale",
    "run_example1",
    "run_figure1",
    "run_proposition1",
    "run_proposition2",
    "run_proposition3",
    "run_protocol_safety",
    "run_safety_violation",
    "run_two_class",
    "run_vulnerability_window",
]
