"""Analysis tools: Monte-Carlo safety estimation, parameter sweeps and reports.

- :mod:`repro.analysis.monte_carlo` -- probability of a safety violation
  under randomly-arriving shared vulnerabilities, as a function of the
  configuration census; runs on a pluggable compute backend
  (:mod:`repro.backend`) and supports parallel census fan-out.
- :mod:`repro.analysis.sweep` -- generic parameter-sweep helpers used by the
  experiments, with optional thread-pool parallelism.
- :mod:`repro.analysis.report` -- plain-text tables (no plotting dependency)
  matching the rows/series the paper reports.
"""

from repro.analysis.components import (
    ComponentKindProfile,
    component_census,
    component_entropy_profile,
    diversification_priority,
    exposure_by_component,
)
from repro.analysis.monte_carlo import (
    SafetyViolationEstimate,
    analytic_single_vulnerability_violation,
    estimate_violation_probabilities,
    estimate_violation_probability,
    violation_probability_by_entropy,
)
from repro.analysis.report import Table, format_table
from repro.analysis.sweep import SweepResult, mapping_sweep, sweep

__all__ = [
    "ComponentKindProfile",
    "SafetyViolationEstimate",
    "SweepResult",
    "Table",
    "analytic_single_vulnerability_violation",
    "component_census",
    "component_entropy_profile",
    "diversification_priority",
    "estimate_violation_probabilities",
    "estimate_violation_probability",
    "exposure_by_component",
    "format_table",
    "mapping_sweep",
    "sweep",
    "violation_probability_by_entropy",
]
