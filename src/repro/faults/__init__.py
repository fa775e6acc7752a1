"""Fault and adversary models (Section II-B).

- :mod:`repro.faults.vulnerability` -- vulnerabilities tied to concrete
  components, with severity and exploitability.
- :mod:`repro.faults.catalog` -- a catalog of known vulnerabilities with
  queries by component / kind.
- :mod:`repro.faults.window` -- vulnerability windows: disclosure, patch
  availability and patch-adoption latency.
- :mod:`repro.faults.adversary` -- adversary strategies: exploit-based
  (shared-vulnerability) attackers, power-renting / bribery attackers and
  rational operators.
- :mod:`repro.faults.campaign` -- exploit campaigns resolving a vulnerability
  set against a replica population into compromised replicas and power
  (the ``f_t^i`` of Section II-C).
- :mod:`repro.faults.matrix` -- the array-backed replicas × vulnerabilities
  exposure matrix campaigns resolve against.
- :mod:`repro.faults.engine` -- batched randomized campaign trials on the
  compute-backend seam.
- :mod:`repro.faults.scenarios` -- parameterized campaign scenario
  generators (adversary budgets, exploit reliability, churned populations).
- :mod:`repro.faults.injection` -- fault schedules for the protocol
  simulations (which replica becomes Byzantine/crashed and when).
"""

from repro.faults.adversary import (
    AdversaryBudget,
    BriberyAdversary,
    ExploitAdversary,
    RationalOperatorAdversary,
)
from repro.faults.campaign import CampaignOutcome, ExploitCampaign
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.engine import (
    BatchCampaignEngine,
    CampaignEstimate,
    GridCampaignEngine,
    GridPointRequest,
    ShardedGridRun,
    merge_campaign_grid_batches,
    run_census_trials,
    split_trial_ranges,
)
from repro.faults.injection import FaultKind, FaultSchedule, FaultSpec
from repro.faults.matrix import PopulationMatrix
from repro.faults.recovery import (
    ExposureTimeline,
    PatchRollout,
    ProactiveRecoveryPolicy,
)
from repro.faults.vulnerability import Severity, Vulnerability
from repro.faults.window import PatchState, VulnerabilityWindow

__all__ = [
    "AdversaryBudget",
    "BatchCampaignEngine",
    "BriberyAdversary",
    "CampaignEstimate",
    "CampaignOutcome",
    "ExploitAdversary",
    "ExploitCampaign",
    "ExposureTimeline",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "GridCampaignEngine",
    "GridPointRequest",
    "PatchRollout",
    "PatchState",
    "PopulationMatrix",
    "ProactiveRecoveryPolicy",
    "RationalOperatorAdversary",
    "Severity",
    "ShardedGridRun",
    "Vulnerability",
    "VulnerabilityCatalog",
    "VulnerabilityWindow",
    "merge_campaign_grid_batches",
    "run_census_trials",
    "split_trial_ranges",
]
