"""Event queue and scheduler for the discrete-event simulator.

Events carry a callback and fire in (time, sequence) order; the sequence
number breaks ties deterministically in insertion order, which keeps runs
reproducible regardless of hash seeds or dictionary ordering.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.exceptions import SimulationError

EventCallback = Callable[[], None]


@dataclass(order=True)
class Event:
    """One scheduled event.

    Events compare by ``(time, sequence)`` so the queue pops them in
    chronological order with deterministic tie-breaking.
    """

    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    label: str = field(compare=False, default="")


class EventQueue:
    """A priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: EventCallback, *, label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < 0:
            raise SimulationError(f"event time must be non-negative, got {time}")
        event = Event(time=time, sequence=next(self._counter), callback=callback, label=label)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        """The time of the next event (``None`` when empty)."""
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class Scheduler:
    """Drives the simulation clock by executing events in order.

    The scheduler owns the clock: ``now`` only advances when an event fires,
    and callbacks schedule future work through :meth:`call_at` /
    :meth:`call_later`.  The run loop stops when the queue drains, when the
    optional time horizon is reached, or when an event limit guards against
    runaway protocols.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def call_at(self, time: float, callback: EventCallback, *, label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time`` (not before ``now``)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past (now={self._now}, requested={time})"
            )
        return self._queue.push(time, callback, label=label)

    def call_later(self, delay: float, callback: EventCallback, *, label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self._now + delay, callback, label=label)

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> float:
        """Execute events until the queue drains, ``until`` or ``max_events``.

        Args:
            until: optional time horizon; events scheduled after it stay queued.
            max_events: hard cap on executed events (guards against livelock).

        Returns:
            The simulated time at which the run stopped.
        """
        if max_events <= 0:
            raise SimulationError(f"max events must be positive, got {max_events}")
        executed_this_run = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            event = self._queue.pop()
            self._now = event.time
            event.callback()
            executed_this_run += 1
            if executed_this_run >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely a livelock"
                )
        return self._now
