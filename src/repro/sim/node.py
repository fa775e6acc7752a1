"""The process abstraction protocol implementations subclass.

A :class:`SimulatedNode` has an id, receives :class:`Message` objects from the
network, and sends messages through the network it is registered with.
Protocol replicas (PBFT, HotStuff, hybrid) derive from it and implement
:meth:`SimulatedNode.on_message`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.exceptions import SimulationError


@dataclass(frozen=True)
class Message:
    """A protocol message in flight.

    Attributes:
        sender: id of the sending node.
        recipient: id of the destination node.
        msg_type: protocol-specific type tag (e.g. ``"PREPARE"``).
        payload: immutable-by-convention mapping of message fields.
        sent_at: simulated time the message was handed to the network.
    """

    sender: str
    recipient: str
    msg_type: str
    payload: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    sent_at: float = 0.0

    @classmethod
    def make(
        cls,
        sender: str,
        recipient: str,
        msg_type: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        sent_at: float = 0.0,
    ) -> "Message":
        """Build a message from a plain payload dictionary."""
        items = tuple(sorted((payload or {}).items()))
        return cls(
            sender=sender,
            recipient=recipient,
            msg_type=msg_type,
            payload=items,
            sent_at=sent_at,
        )

    def get(self, key: str, default: Any = None) -> Any:
        """Read one payload field."""
        for name, value in self.payload:
            if name == key:
                return value
        return default

    def __str__(self) -> str:
        return f"{self.msg_type}({self.sender}->{self.recipient})"


class SimulatedNode:
    """Base class for all simulated processes.

    Subclasses implement :meth:`on_message` and may override :meth:`on_start`
    (called once when the simulation begins).
    """

    def __init__(self, node_id: str) -> None:
        if not node_id:
            raise SimulationError("node id must not be empty")
        self.node_id = node_id
        self._network = None  # set by SimulatedNetwork.register

    # -- wiring -------------------------------------------------------------------

    def attach(self, network: "SimulatedNetwork") -> None:  # noqa: F821
        """Called by the network when the node is registered."""
        self._network = network

    @property
    def network(self):
        if self._network is None:
            raise SimulationError(f"node {self.node_id!r} is not attached to a network")
        return self._network

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.network.scheduler.now

    # -- actions -------------------------------------------------------------------

    def send(self, recipient: str, msg_type: str, payload: Optional[Dict[str, Any]] = None) -> None:
        """Send a message to one node."""
        self.network.send(
            Message.make(self.node_id, recipient, msg_type, payload, sent_at=self.now)
        )

    def broadcast(self, msg_type: str, payload: Optional[Dict[str, Any]] = None, *, include_self: bool = True) -> None:
        """Send a message to every registered node (optionally including self)."""
        for node_id in self.network.node_ids():
            if node_id == self.node_id and not include_self:
                continue
            self.send(node_id, msg_type, payload)

    # -- callbacks -------------------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the simulation starts; default does nothing."""

    def on_message(self, message: Message) -> None:
        """Handle a delivered message; subclasses must override."""
        raise NotImplementedError

    # -- internals ---------------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Called by the network to hand a message to this node."""
        self.on_message(message)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node_id={self.node_id!r})"
