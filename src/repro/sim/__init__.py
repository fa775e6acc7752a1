"""Deterministic discrete-event simulation substrate.

The BFT protocol implementations run on this simulator instead
of real sockets and threads: every protocol step is an event on a priority
queue ordered by simulated time, message delivery goes through a
:class:`~repro.sim.network.SimulatedNetwork` with configurable latency and
loss, and all randomness flows from explicit seeds, so every run is
reproducible bit-for-bit.

- :mod:`repro.sim.events` -- the event queue and scheduler.
- :mod:`repro.sim.network` -- latency / loss modelling.
- :mod:`repro.sim.node` -- the process abstraction protocols subclass.
- :mod:`repro.sim.metrics` -- named message counters.
"""

from repro.sim.events import Event, EventQueue, Scheduler
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import NetworkConfig, SimulatedNetwork
from repro.sim.node import Message, SimulatedNode

__all__ = [
    "Event",
    "EventQueue",
    "Message",
    "MetricsRegistry",
    "NetworkConfig",
    "Scheduler",
    "SimulatedNetwork",
    "SimulatedNode",
]
