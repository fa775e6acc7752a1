"""Simulated network: latency and loss.

Messages handed to :meth:`SimulatedNetwork.send` are delivered to the
recipient node after a sampled delay, unless they are dropped by the loss
model.  All randomness comes from a dedicated
:class:`random.Random` so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.exceptions import SimulationError
from repro.sim.events import Scheduler
from repro.sim.metrics import MetricsRegistry
from repro.sim.node import Message, SimulatedNode


@dataclass(frozen=True)
class NetworkConfig:
    """Delay and loss parameters of the simulated network.

    Attributes:
        min_delay: lower bound on one-way message delay.
        max_delay: upper bound on one-way message delay (uniformly sampled).
        loss_probability: independent per-message drop probability.
        seed: RNG seed for delay sampling and loss decisions.
    """

    min_delay: float = 0.01
    max_delay: float = 0.05
    loss_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_delay < 0 or self.max_delay < 0:
            raise SimulationError("network delays must be non-negative")
        if self.max_delay < self.min_delay:
            raise SimulationError(
                f"max delay ({self.max_delay}) must be >= min delay ({self.min_delay})"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise SimulationError(
                f"loss probability must be in [0, 1), got {self.loss_probability}"
            )


class SimulatedNetwork:
    """Connects :class:`SimulatedNode` instances through a scheduler."""

    def __init__(
        self,
        scheduler: Scheduler,
        config: Optional[NetworkConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config or NetworkConfig()
        self.metrics = metrics or MetricsRegistry()
        self._nodes: Dict[str, SimulatedNode] = {}
        self._rng = random.Random(self.config.seed)

    # -- membership -----------------------------------------------------------------

    def register(self, node: SimulatedNode) -> None:
        """Add a node to the network."""
        if node.node_id in self._nodes:
            raise SimulationError(f"node {node.node_id!r} already registered")
        self._nodes[node.node_id] = node
        node.attach(self)

    def register_all(self, nodes: Iterable[SimulatedNode]) -> None:
        for node in nodes:
            self.register(node)

    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._nodes.keys())

    def start(self) -> None:
        """Invoke ``on_start`` on every registered node."""
        for node in self._nodes.values():
            node.on_start()

    # -- delivery ---------------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Accept a message for (possible) future delivery."""
        if message.recipient not in self._nodes:
            raise SimulationError(f"unknown recipient {message.recipient!r}")
        self.metrics.increment("messages_sent")
        if self.config.loss_probability > 0 and self._rng.random() < self.config.loss_probability:
            self.metrics.increment("messages_dropped")
            return
        delay = self._rng.uniform(self.config.min_delay, self.config.max_delay)
        self.scheduler.call_later(
            delay,
            lambda: self._deliver(message),
            label=f"deliver:{message.msg_type}:{message.sender}->{message.recipient}",
        )

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.recipient)
        if node is None:  # the node may have been removed mid-flight
            self.metrics.increment("messages_undeliverable")
            return
        self.metrics.increment("messages_delivered")
        node.deliver(message)

    # -- dunder --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __repr__(self) -> str:
        return (
            f"SimulatedNetwork(nodes={len(self)}, "
            f"delay=[{self.config.min_delay}, {self.config.max_delay}])"
        )
