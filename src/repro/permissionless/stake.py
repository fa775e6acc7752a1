"""Stake accounts and delegation (the exchange-custody oligopoly).

Section III-A observes that end users often hold their keys at exchanges and
delegate validation, so a handful of custodians end up wielding a large share
of the stake — reducing diversity exactly like mining pools do for hash power.
The :class:`StakeRegistry` models accounts, delegation and the resulting
*effective* voting-power distribution over validators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import MembershipError


@dataclass(frozen=True)
class StakeAccount:
    """One stake-holding account.

    Attributes:
        account_id: unique account identifier.
        stake: the account's own stake.
        delegate_id: validator/custodian the stake is delegated to (``None``
            when the account validates for itself).
    """

    account_id: str
    stake: float
    delegate_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.account_id:
            raise MembershipError("account id must not be empty")
        if self.stake < 0:
            raise MembershipError(f"stake must be non-negative, got {self.stake}")


class StakeRegistry:
    """Tracks accounts, delegation and effective validator power."""

    def __init__(self) -> None:
        self._accounts: Dict[str, StakeAccount] = {}

    # -- mutation --------------------------------------------------------------------

    def open_account(self, account_id: str, stake: float) -> None:
        """Create an account holding ``stake`` (initially self-validating)."""
        if account_id in self._accounts:
            raise MembershipError(f"account {account_id!r} already exists")
        self._accounts[account_id] = StakeAccount(account_id=account_id, stake=stake)

    def delegate(self, account_id: str, delegate_id: Optional[str]) -> None:
        """Delegate an account's stake to ``delegate_id`` (``None`` undelegates).

        Delegating to an account that itself delegates is allowed; effective
        power resolution follows the chain (with cycle detection).
        """
        account = self._get(account_id)
        if delegate_id == account_id:
            raise MembershipError("an account cannot delegate to itself")
        if delegate_id is not None and delegate_id not in self._accounts:
            raise MembershipError(f"unknown delegate {delegate_id!r}")
        self._accounts[account_id] = StakeAccount(
            account_id=account_id, stake=account.stake, delegate_id=delegate_id
        )

    # -- queries -----------------------------------------------------------------------

    def _get(self, account_id: str) -> StakeAccount:
        try:
            return self._accounts[account_id]
        except KeyError:
            raise MembershipError(f"unknown account {account_id!r}") from None

    def _resolve_validator(self, account_id: str) -> str:
        """Follow the delegation chain to the account that actually validates."""
        current = account_id
        visited = set()
        while True:
            if current in visited:
                raise MembershipError(
                    f"delegation cycle detected starting from {account_id!r}"
                )
            visited.add(current)
            delegate = self._accounts[current].delegate_id
            if delegate is None:
                return current
            current = delegate

    def effective_power(self) -> Dict[str, float]:
        """Effective validating power per validator (delegations resolved)."""
        power: Dict[str, float] = {}
        for account in self._accounts.values():
            if account.stake <= 0:
                continue
            validator = self._resolve_validator(account.account_id)
            power[validator] = power.get(validator, 0.0) + account.stake
        return power

    def validator_distribution(self) -> ConfigurationDistribution:
        """Effective power as a distribution (one "configuration" per validator).

        This is the best-case diversity view, exactly parallel to treating
        each mining pool as a unique configuration in Example 1.
        """
        power = self.effective_power()
        if not power:
            raise MembershipError("no account holds positive stake")
        return ConfigurationDistribution(power)

    def custodian_concentration(self, count: int) -> float:
        """Fraction of stake validated by the ``count`` largest validators."""
        if count < 0:
            raise MembershipError(f"count must be non-negative, got {count}")
        power = sorted(self.effective_power().values(), reverse=True)
        total = sum(power)
        if total <= 0:
            return 0.0
        return sum(power[:count]) / total

    # -- dunder ----------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, account_id: str) -> bool:
        return account_id in self._accounts
