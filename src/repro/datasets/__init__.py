"""Datasets and synthetic data generators.

- :mod:`repro.datasets.bitcoin_pools` -- the 02-Feb-2023 Bitcoin mining-pool
  hash-power snapshot used by the paper's Example 1 and Figure 1.
- :mod:`repro.datasets.software_ecosystem` -- synthetic market-share data for
  the component families discussed in Section III-A (operating systems,
  consensus clients, wallets, crypto libraries, trusted hardware).
- :mod:`repro.datasets.generators` -- parametric distribution generators
  (uniform, Zipf, oligopoly) used by the ``safety_violation`` experiment, and
  the streaming population generator behind ``ecosystem_scale``.
"""

from repro.datasets.bitcoin_pools import (
    BITCOIN_POOL_SHARES_FEB_2023,
    RESIDUAL_SHARE_FEB_2023,
    bitcoin_pool_distribution,
    figure1_distribution,
)
from repro.datasets.generators import (
    oligopoly_distribution,
    stream_replica_chunks,
    uniform_distribution,
    zipf_distribution,
)
from repro.datasets.software_ecosystem import (
    SyntheticEcosystem,
    default_ecosystem,
    skewed_ecosystem,
)

__all__ = [
    "BITCOIN_POOL_SHARES_FEB_2023",
    "RESIDUAL_SHARE_FEB_2023",
    "SyntheticEcosystem",
    "bitcoin_pool_distribution",
    "default_ecosystem",
    "figure1_distribution",
    "oligopoly_distribution",
    "skewed_ecosystem",
    "uniform_distribution",
    "zipf_distribution",
]
