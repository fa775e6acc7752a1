"""Core contribution of the paper: configuration model, diversity metrics,
optimal fault independence and resilience analysis.

Modules:

- :mod:`repro.core.configuration` -- replica configurations and the
  configuration space ``D`` (Section III-A).
- :mod:`repro.core.power` -- the voting-power abstraction ``n_t``
  (Section II-A).
- :mod:`repro.core.population` -- replica populations with join/leave and
  configuration census.
- :mod:`repro.core.distribution` -- probability distributions ``p`` over the
  configuration space (Section IV-A).
- :mod:`repro.core.abundance` -- configuration abundance and relative
  configuration abundance (Section IV-B).
- :mod:`repro.core.entropy` -- Shannon entropy and its generalisations.
- :mod:`repro.core.diversity_index` -- ecology-style diversity indices.
- :mod:`repro.core.optimality` -- Definition 1 (κ-optimal fault independence)
  and Definition 2 ((κ, ω)-optimal resilience).
- :mod:`repro.core.propositions` -- Propositions 1-3 as executable checks.
- :mod:`repro.core.resilience` -- the Section II-C safety condition and
  resilience reports.
- :mod:`repro.core.exceptions` -- the library-wide exception hierarchy.
"""

from repro.core import exceptions
from repro.core.abundance import AbundanceVector
from repro.core.configuration import (
    ComponentKind,
    ReplicaConfiguration,
    SoftwareComponent,
)
from repro.core.distribution import ConfigurationDistribution
from repro.core.entropy import max_entropy, normalized_entropy, shannon_entropy
from repro.core.optimality import is_kappa_omega_optimal, is_kappa_optimal
from repro.core.population import Replica, ReplicaPopulation
from repro.core.power import PowerRegime
from repro.core.resilience import (
    ResilienceReport,
    SafetyCondition,
    tolerated_fault_fraction,
)

__all__ = [
    "AbundanceVector",
    "ComponentKind",
    "ConfigurationDistribution",
    "PowerRegime",
    "Replica",
    "ReplicaConfiguration",
    "ReplicaPopulation",
    "ResilienceReport",
    "SafetyCondition",
    "SoftwareComponent",
    "exceptions",
    "is_kappa_omega_optimal",
    "is_kappa_optimal",
    "max_entropy",
    "normalized_entropy",
    "shannon_entropy",
    "tolerated_fault_fraction",
]
