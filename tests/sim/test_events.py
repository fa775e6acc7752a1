"""Focused tests for sim.events: deterministic tie-breaking.

The Scheduler docstrings assert this behavior; this module pins it.  The
broader simulator integration (network, nodes, metrics) lives in
tests/sim/test_simulator.py.
"""

from __future__ import annotations


from repro.sim.events import EventQueue, Scheduler


class TestTieBreaking:
    def test_equal_timestamps_fire_in_insertion_order(self):
        scheduler = Scheduler()
        order = []
        for label in ("first", "second", "third", "fourth"):
            scheduler.call_at(3.0, lambda label=label: order.append(label))
        scheduler.run()
        assert order == ["first", "second", "third", "fourth"]

    def test_ties_scheduled_from_callbacks_still_follow_insertion_order(self):
        scheduler = Scheduler()
        order = []

        def first():
            order.append("first")
            # Scheduled mid-run at the same timestamp: runs after the
            # already-queued "second" because its sequence number is larger.
            scheduler.call_at(1.0, lambda: order.append("late addition"))

        scheduler.call_at(1.0, first)
        scheduler.call_at(1.0, lambda: order.append("second"))
        scheduler.run()
        assert order == ["first", "second", "late addition"]

    def test_queue_pop_breaks_ties_by_sequence(self):
        queue = EventQueue()
        pushed_first = queue.push(2.0, lambda: None, label="first")
        pushed_second = queue.push(2.0, lambda: None, label="second")
        assert queue.pop() is pushed_first
        assert queue.pop() is pushed_second
