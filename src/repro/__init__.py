"""Reproduction of *Fault Independence in Blockchain* (DSN 2023, Disrupt Track).

The package is organized around the paper's contribution (entropy-based
quantification of replica diversity and fault independence) plus every
substrate the paper's argument relies on:

- :mod:`repro.core` -- configuration model, entropy / diversity metrics,
  κ-optimal fault independence, (κ, ω)-optimal resilience, the three
  propositions and the Section II-C safety condition.
- :mod:`repro.attestation` -- simulated remote attestation (TPM / TEE) used
  for configuration discovery, vote-key binding and configuration privacy.
- :mod:`repro.faults` -- vulnerabilities, vulnerability windows, exploit
  campaigns and adversary strategies.
- :mod:`repro.sim` -- a deterministic discrete-event simulator.
- :mod:`repro.bft` -- PBFT-style, HotStuff-style and hybrid (trusted
  component) consensus protocols running on the simulator.
- :mod:`repro.nakamoto` -- proof-of-work mining, mining pools and
  longest-chain consensus.
- :mod:`repro.permissionless` -- open membership, churn, stake delegation and
  committee selection.
- :mod:`repro.diversity` -- diversity managers and planners (Lazarus-style
  baseline and a decentralized attestation-weighted policy).
- :mod:`repro.datasets` -- the Bitcoin mining-pool snapshot used by the
  paper's Example 1 / Figure 1 plus synthetic ecosystem generators.
- :mod:`repro.analysis` -- Monte-Carlo safety analysis, sweeps and reports.
- :mod:`repro.backend` -- pluggable compute backends (vectorized NumPy and a
  pure-Python fallback) behind ``get_backend`` / ``REPRO_BACKEND``.
- :mod:`repro.experiments` -- one module per figure / example / proposition.
"""

from repro.backend import available_backends, get_backend, set_default_backend
from repro.core.abundance import AbundanceVector
from repro.core.configuration import (
    ComponentKind,
    ReplicaConfiguration,
    SoftwareComponent,
)
from repro.core.distribution import ConfigurationDistribution
from repro.core.entropy import (
    max_entropy,
    normalized_entropy,
    shannon_entropy,
)
from repro.core.optimality import (
    is_kappa_omega_optimal,
    is_kappa_optimal,
)
from repro.core.population import Replica, ReplicaPopulation
from repro.core.power import PowerRegime
from repro.core.resilience import (
    ResilienceReport,
    SafetyCondition,
    tolerated_fault_fraction,
)

__version__ = "1.0.0"

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
    "__version__",
    "available_backends",
    "get_backend",
    "is_kappa_omega_optimal",
    "is_kappa_optimal",
    "max_entropy",
    "normalized_entropy",
    "set_default_backend",
    "shannon_entropy",
    "tolerated_fault_fraction",
]
