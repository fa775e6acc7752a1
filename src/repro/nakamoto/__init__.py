"""Nakamoto (proof-of-work) consensus substrate.

Bitcoin is the paper's running example of a permissionless blockchain, so the
reproduction ships a proof-of-work substrate:

- :mod:`repro.nakamoto.miner` / :mod:`repro.nakamoto.pool` -- miners, mining
  pools and the pool-level power oligopoly of Example 1;
- :mod:`repro.nakamoto.decentralized_pool` -- decentralized pools whose
  members run diverse configurations;
- :mod:`repro.nakamoto.simulation` -- a stochastic mining race (each block
  won with probability proportional to hash power) in which an attacker
  coalition builds a private double-spend fork;
- :mod:`repro.nakamoto.attack` -- analytic double-spend success probabilities
  and majority-takeover analysis driven by shared-vulnerability campaigns.
"""

from repro.nakamoto.attack import double_spend_success_probability, majority_takeover
from repro.nakamoto.decentralized_pool import (
    DecentralizationReport,
    decentralization_report,
    decentralize_pools,
)
from repro.nakamoto.miner import Miner
from repro.nakamoto.pool import MiningPool, pools_from_snapshot
from repro.nakamoto.simulation import MiningSimulation, MiningSimulationResult

__all__ = [
    "DecentralizationReport",
    "Miner",
    "MiningPool",
    "MiningSimulation",
    "MiningSimulationResult",
    "decentralization_report",
    "decentralize_pools",
    "double_spend_success_probability",
    "majority_takeover",
    "pools_from_snapshot",
]
