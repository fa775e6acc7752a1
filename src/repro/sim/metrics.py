"""Metric collection for simulations and experiments.

A tiny, dependency-free registry of named counters.  The protocol simulators
count messages here so the consensus runners can read them back uniformly.
"""

from __future__ import annotations

from typing import Dict

from repro.core.exceptions import SimulationError


class MetricsRegistry:
    """Named counters."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        if amount < 0:
            raise SimulationError(f"counter increments must be non-negative, got {amount}")
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Current value of the counter (zero when never incremented)."""
        return self._counters.get(name, 0.0)

    def __repr__(self) -> str:
        return f"MetricsRegistry(counters={len(self._counters)})"
