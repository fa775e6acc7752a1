"""The Bitcoin mining-pool snapshot behind Example 1 and Figure 1.

Example 1 quotes the blockchain.com pool statistics of 02 February 2023: the
17 largest mining pools together control 99.13% of the hash power, distributed
as listed below, and the remaining 0.87% is of unknown composition.  Figure 1
assumes the best case for diversity — every pool runs a unique configuration —
and spreads the residual 0.87% uniformly over ``x`` additional miners for
``x`` from 1 to 1000, plotting the Shannon entropy of the resulting
distribution.

This module embeds the exact numbers from the paper and provides the
distribution constructors used by :mod:`repro.experiments.figure1` and
:mod:`repro.experiments.example1`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import DistributionError

#: Hash-power percentages of the 17 largest pools on 02 February 2023, as
#: printed in Example 1 of the paper (largest first).  The names are the top
#: pools reported by blockchain.com around that date; the paper itself only
#: prints the percentages, which is all the analysis depends on.
BITCOIN_POOL_SHARES_FEB_2023: Tuple[Tuple[str, float], ...] = (
    ("foundry-usa", 34.239),
    ("antpool", 19.981),
    ("f2pool", 12.997),
    ("binance-pool", 11.348),
    ("viabtc", 8.826),
    ("btc-com", 2.619),
    ("poolin", 2.037),
    ("mara-pool", 1.649),
    ("luxor", 1.358),
    ("sbi-crypto", 1.261),
    ("braiins-pool", 0.78),
    ("ultimuspool", 0.68),
    ("pool-13", 0.68),
    ("pool-14", 0.39),
    ("pool-15", 0.10),
    ("pool-16", 0.10),
    ("pool-17", 0.10),
)

#: Total hash-power percentage covered by the 17 pools, as *stated* in the
#: paper ("17 mining pools in Bitcoin possess 99.13% mining power").  Note
#: that the individual percentages printed in Example 1 actually add up to
#: 99.145%, a 0.015-point rounding artifact of the source chart; we keep the
#: printed per-pool values verbatim and expose both numbers.
TOP_POOL_TOTAL_SHARE_FEB_2023: float = 99.13

#: The residual hash-power percentage of unknown composition, as stated in
#: the paper.
RESIDUAL_SHARE_FEB_2023: float = 0.87


def pool_share_mapping() -> Dict[str, float]:
    """The 17-pool snapshot as a mapping pool name -> hash-power percentage."""
    return dict(BITCOIN_POOL_SHARES_FEB_2023)


def bitcoin_pool_distribution() -> ConfigurationDistribution:
    """Distribution over the 17 named pools only (residual power excluded).

    Each pool is treated as one unique configuration, which is the paper's
    best-case diversity assumption.
    """
    return ConfigurationDistribution(pool_share_mapping())


def figure1_distribution(
    residual_miners: int,
    *,
    residual_share: float = RESIDUAL_SHARE_FEB_2023,
) -> ConfigurationDistribution:
    """The Figure 1 distribution for a given residual miner count ``x``.

    The 17 pools keep their measured shares; the residual ``residual_share``
    percent of hash power is split uniformly over ``residual_miners``
    additional miners, each assumed to run its own unique configuration.  With
    ``residual_miners = 101`` the system has 118 miners in total, matching the
    caption of Figure 1.

    Args:
        residual_miners: the X-axis value of Figure 1 (1 to 1000 in the paper).
        residual_share: hash-power percentage to distribute (0.87 by default).

    Raises:
        DistributionError: when ``residual_miners`` is not positive or the
            residual share is negative.
    """
    if residual_miners <= 0:
        raise DistributionError(
            f"residual miner count must be positive, got {residual_miners}"
        )
    if residual_share < 0:
        raise DistributionError(
            f"residual share must be non-negative, got {residual_share}"
        )
    weights: Dict[str, float] = pool_share_mapping()
    if residual_share > 0:
        per_miner = residual_share / residual_miners
        for index in range(residual_miners):
            weights[f"residual-miner-{index}"] = per_miner
    return ConfigurationDistribution(weights)


def figure1_total_miners(residual_miners: int) -> int:
    """Total number of miners for a given X-axis value (17 pools + residual)."""
    if residual_miners <= 0:
        raise DistributionError(
            f"residual miner count must be positive, got {residual_miners}"
        )
    return len(BITCOIN_POOL_SHARES_FEB_2023) + residual_miners
