"""Unit tests for the discrete-event simulator (events, network, metrics)."""

from __future__ import annotations

import pytest

from repro.core.exceptions import SimulationError
from repro.sim.events import EventQueue, Scheduler
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import NetworkConfig, SimulatedNetwork
from repro.sim.node import Message, SimulatedNode


class EchoNode(SimulatedNode):
    """Test node that records everything it receives and can echo back."""

    def __init__(self, node_id: str, *, echo: bool = False) -> None:
        super().__init__(node_id)
        self.received = []
        self._echo = echo

    def on_message(self, message: Message) -> None:
        self.received.append(message)
        if self._echo and message.msg_type == "PING":
            self.send(message.sender, "PONG", {"n": message.get("n")})


class TestEventQueueAndScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.call_at(2.0, lambda: order.append("late"))
        scheduler.call_at(1.0, lambda: order.append("early"))
        scheduler.run()
        assert order == ["early", "late"]

    def test_ties_break_by_insertion_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.call_at(1.0, lambda: order.append("first"))
        scheduler.call_at(1.0, lambda: order.append("second"))
        scheduler.run()
        assert order == ["first", "second"]

    def test_clock_advances_with_events(self):
        scheduler = Scheduler()
        times = []
        scheduler.call_later(0.5, lambda: times.append(scheduler.now))
        scheduler.call_later(1.5, lambda: times.append(scheduler.now))
        end = scheduler.run()
        assert times == [0.5, 1.5]
        assert end == pytest.approx(1.5)

    def test_until_horizon_stops_early(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_at(5.0, lambda: fired.append(True))
        scheduler.run(until=1.0)
        assert not fired
        scheduler.run()
        assert fired

    def test_scheduling_in_the_past_rejected(self):
        scheduler = Scheduler()
        scheduler.call_at(1.0, lambda: scheduler.call_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            scheduler.run()

    def test_max_events_guard(self):
        scheduler = Scheduler()

        def reschedule():
            scheduler.call_later(0.001, reschedule)

        scheduler.call_later(0.0, reschedule)
        with pytest.raises(SimulationError):
            scheduler.run(max_events=100)

    def test_empty_queue_pop_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().call_later(-1.0, lambda: None)


class TestNetwork:
    def _build(self, config=None):
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler, config)
        a = EchoNode("a", echo=True)
        b = EchoNode("b")
        network.register_all([a, b])
        return scheduler, network, a, b

    def test_message_delivery_and_reply(self):
        scheduler, network, a, b = self._build()
        b.send("a", "PING", {"n": 1})
        scheduler.run()
        assert [m.msg_type for m in a.received] == ["PING"]
        assert [m.msg_type for m in b.received] == ["PONG"]
        assert b.received[0].get("n") == 1

    def test_broadcast_includes_or_excludes_self(self):
        scheduler, network, a, b = self._build()
        a.broadcast("HELLO", include_self=False)
        scheduler.run()
        assert len(a.received) == 0
        assert len(b.received) == 1

    def test_lossy_network_drops_messages(self):
        scheduler, network, a, b = self._build(
            NetworkConfig(loss_probability=0.9, seed=1)
        )
        for _ in range(50):
            a.send("b", "PING")
        scheduler.run()
        assert len(b.received) < 50
        assert network.metrics.counter("messages_dropped") > 0

    def test_delays_fall_within_configured_bounds(self):
        config = NetworkConfig(min_delay=0.2, max_delay=0.4, seed=2)
        scheduler, network, a, b = self._build(config)
        a.send("b", "PING")
        end = scheduler.run()
        assert 0.2 <= end <= 0.4

    def test_unknown_recipient_rejected(self):
        _, network, a, _ = self._build()
        with pytest.raises(SimulationError):
            a.send("ghost", "PING")

    def test_duplicate_registration_rejected(self):
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler)
        node = EchoNode("a")
        network.register(node)
        with pytest.raises(SimulationError):
            network.register(EchoNode("a"))

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            NetworkConfig(min_delay=0.5, max_delay=0.1)
        with pytest.raises(SimulationError):
            NetworkConfig(loss_probability=1.0)

    def test_message_counters(self):
        scheduler, network, a, b = self._build()
        a.send("b", "PING")
        scheduler.run()
        assert network.metrics.counter("messages_sent") == 1
        assert network.metrics.counter("messages_delivered") == 1


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("commits")
        metrics.increment("commits", 2)
        assert metrics.counter("commits") == 3
        assert metrics.counter("unknown") == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(SimulationError):
            MetricsRegistry().increment("x", -1)
