"""Stochastic mining simulation with an optional attacker coalition.

The simulation abstracts proof of work as a race: each block is won by a
miner with probability proportional to its hash power (the standard
memoryless PoW model).  Honest miners always extend the longest public chain;
the attacker coalition (compromised miners/pools) secretly extends a private
fork from a chosen point and publishes it once it is longer than the public
chain — the classic double-spend strategy.

This gives the end-to-end Nakamoto counterpart of the BFT safety runs: when a
shared vulnerability hands the attacker more than half of the hash power, the
private fork overtakes the public chain with high probability and committed
(confirmed) blocks are reverted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.core.exceptions import ProtocolError
from repro.nakamoto.miner import Miner


@dataclass(frozen=True)
class MiningSimulationResult:
    """Outcome of one mining simulation run.

    Attributes:
        total_blocks: blocks mined in total (public + private).
        main_chain_length: height of the final canonical chain.
        blocks_by_miner: canonical-chain blocks per miner id.
        attacker_fraction: the attacker coalition's share of hash power.
        attack_launched: whether an attacker fork was attempted.
        attack_succeeded: whether the attacker fork overtook the public chain
            and reverted at least ``confirmations`` blocks.
        reverted_blocks: number of previously-canonical blocks reverted by the
            published attacker fork.
        revenue_share: fraction of canonical blocks mined by the attacker.
    """

    total_blocks: int
    main_chain_length: int
    blocks_by_miner: Tuple[Tuple[str, int], ...]
    attacker_fraction: float
    attack_launched: bool
    attack_succeeded: bool
    reverted_blocks: int
    revenue_share: float


class MiningSimulation:
    """Simulates a private-fork double-spend attack against honest miners."""

    def __init__(
        self,
        miners: Sequence[Miner],
        *,
        seed: int = 0,
    ) -> None:
        if not miners:
            raise ProtocolError("at least one miner is required")
        powers = [miner.hash_power for miner in miners]
        if sum(powers) <= 0:
            raise ProtocolError("total hash power must be positive")
        self._miners = list(miners)
        self._rng = random.Random(seed)

    def attacker_fraction(self, attacker_ids: Iterable[str]) -> float:
        """Hash-power fraction controlled by the given miners."""
        attacker_set = set(attacker_ids)
        total = sum(miner.hash_power for miner in self._miners)
        attacker = sum(
            miner.hash_power for miner in self._miners if miner.miner_id in attacker_set
        )
        return attacker / total if total > 0 else 0.0

    # -- double-spend attack -----------------------------------------------------------

    def run_double_spend(
        self,
        attacker_ids: Iterable[str],
        *,
        confirmations: int = 6,
        max_blocks: int = 2000,
        give_up_deficit: int = 20,
    ) -> MiningSimulationResult:
        """Run a private-fork double-spend attempt.

        The attacker coalition forks from the block that the merchant's
        transaction lands in, waits for ``confirmations`` public blocks, then
        keeps extending its private chain until it is longer than the public
        chain (success: the public suffix is reverted) or it falls
        ``give_up_deficit`` blocks behind / ``max_blocks`` are mined (failure).
        """
        if confirmations < 1:
            raise ProtocolError(f"confirmations must be positive, got {confirmations}")
        if max_blocks <= confirmations:
            raise ProtocolError("max blocks must exceed the confirmation depth")
        if give_up_deficit < 1:
            raise ProtocolError(f"give-up deficit must be positive, got {give_up_deficit}")
        attacker_set = set(attacker_ids)
        attackers = [m for m in self._miners if m.miner_id in attacker_set]
        honest = [m for m in self._miners if m.miner_id not in attacker_set]
        if not attackers:
            raise ProtocolError("the attacker coalition is empty")
        if not honest:
            raise ProtocolError("at least one honest miner is required")
        fraction = self.attacker_fraction(attacker_set)
        attacker_power = sum(m.hash_power for m in attackers)
        honest_power = sum(m.hash_power for m in honest)
        total_power = attacker_power + honest_power

        # Fork point: the block containing the double-spent transaction.
        public_height = 0  # blocks mined on the public chain after the fork point
        private_height = 0  # blocks on the attacker's private fork
        total_blocks = 0
        attacker_canonical = 0
        attack_succeeded = False
        reverted = 0

        while total_blocks < max_blocks:
            total_blocks += 1
            # Who finds the next block overall is proportional to power.
            if self._rng.random() < attacker_power / total_power:
                private_height += 1
            else:
                public_height += 1
            if public_height >= confirmations:
                # The merchant has released the goods; the attacker publishes
                # as soon as its fork is strictly longer.
                if private_height > public_height:
                    attack_succeeded = True
                    reverted = public_height
                    attacker_canonical = private_height
                    break
                if public_height - private_height >= give_up_deficit:
                    break

        if attack_succeeded:
            main_chain_length = private_height
            revenue_share = 1.0
        else:
            main_chain_length = public_height
            revenue_share = 0.0

        by_miner: Dict[str, int] = {}
        label = "attacker-coalition" if attack_succeeded else "honest-miners"
        by_miner[label] = main_chain_length
        return MiningSimulationResult(
            total_blocks=total_blocks,
            main_chain_length=main_chain_length,
            blocks_by_miner=tuple(sorted(by_miner.items())),
            attacker_fraction=fraction,
            attack_launched=True,
            attack_succeeded=attack_succeeded,
            reverted_blocks=reverted,
            revenue_share=revenue_share,
        )
