"""The reliable-transport state machine: timeout -> retransmit -> ack
dedup -> give-up, plus retransmission energy accounting."""

import numpy as np
import pytest

from repro.network.link import WirelessLink
from repro.network.messages import (
    UNSEQUENCED,
    Ack,
    EnergyReport,
    Heartbeat,
)
from repro.network.reliability import ReliableTransport, node_seed
from repro.network.simulator import EventSimulator, Node


class Endpoint(Node):
    """A node that acks/dedups through its transport and records."""

    def __init__(self, node_id, reliable=True, **transport_kwargs):
        super().__init__(node_id)
        self.transport = (
            ReliableTransport(self, **transport_kwargs) if reliable else None
        )
        self.processed = []
        self.transmit_energy = 0.0

    def on_transmit(self, num_bytes, energy_joules):
        self.transmit_energy += energy_joules

    def receive(self, message):
        if isinstance(message, Ack):
            self.transport.handle_ack(message)
            return
        if self.transport is not None and not self.transport.accept(message):
            return
        self.processed.append(message)


@pytest.fixture()
def net():
    sim = EventSimulator()
    a = Endpoint("a", jitter_s=0.0)
    b = Endpoint("b", jitter_s=0.0)
    sim.register_node(a)
    sim.register_node(b)
    sim.connect("a", "b", WirelessLink(bandwidth_bps=1e6, latency_s=0.01))
    return sim, a, b


def _report(sender="a", recipient="b", joules=5.0):
    return EnergyReport(
        sender=sender, recipient=recipient, residual_joules=joules
    )


class TestHappyPath:
    def test_delivery_and_ack_clears_pending(self, net):
        sim, a, b = net
        a.transport.send(_report())
        sim.run()
        assert [m.residual_joules for m in b.processed] == [5.0]
        assert len(a.transport._pending) == 0
        assert a.transport.retransmissions == 0
        assert b.transport.acks_sent == 1

    def test_sequence_numbers_increment(self, net):
        sim, a, b = net
        assert a.transport.send(_report()) == 0
        assert a.transport.send(_report()) == 1
        sim.run()
        assert [m.seq for m in b.processed] == [0, 1]

    def test_unsequenced_messages_pass_without_ack(self, net):
        sim, a, b = net
        a.send(Heartbeat(sender="a", recipient="b"))
        sim.run()
        assert len(b.processed) == 1  # passes straight through...
        assert b.transport.acks_sent == 0  # ...without an ack

    def test_stale_ack_is_ignored(self, net):
        sim, a, b = net
        assert not a.transport.handle_ack(
            Ack(sender="b", recipient="a", acked_seq=99)
        )


class _LossySwitch:
    """Injector stand-in: drop the first N data transmissions."""

    def __init__(self, drops, kinds=("EnergyReport",)):
        self.remaining = drops
        self.kinds = kinds

    def on_send(self, message):
        from repro.faults.injector import SendVerdict

        if self.remaining > 0 and message.kind in self.kinds:
            self.remaining -= 1
            return SendVerdict(drop=True)
        return SendVerdict()


class TestRetryPath:
    def test_timeout_triggers_retransmit(self, net):
        sim, a, b = net
        sim.fault_injector = _LossySwitch(drops=1)
        a.transport.send(_report())
        sim.run()
        assert a.transport.retransmissions == 1
        assert [m.residual_joules for m in b.processed] == [5.0]
        assert len(a.transport._pending) == 0

    def test_each_attempt_charges_sender_energy(self, net):
        sim, a, b = net
        a.transport.send(_report())
        sim.run()
        one_attempt = a.transmit_energy
        a.transmit_energy = 0.0
        sim.fault_injector = _LossySwitch(drops=2)
        a.transport.send(_report())
        sim.run()
        assert a.transmit_energy == pytest.approx(3 * one_attempt)

    def test_lost_ack_causes_duplicate_which_is_suppressed(self, net):
        sim, a, b = net
        sim.fault_injector = _LossySwitch(drops=1, kinds=("Ack",))
        a.transport.send(_report())
        sim.run()
        # The data arrived twice, was processed once, acked twice.
        assert len(b.processed) == 1
        assert b.transport.duplicates_dropped == 1
        assert b.transport.acks_sent == 2
        assert len(a.transport._pending) == 0

    def test_backoff_grows_exponentially(self, net):
        sim, a, b = net
        sim.fault_injector = _LossySwitch(drops=3)
        a.transport.send(_report())
        sim.run()
        # timeouts at 0.25, +0.5, +1.0 before the 4th attempt lands.
        assert a.transport.retransmissions == 3
        assert sim.now >= 0.25 + 0.5 + 1.0

    def test_give_up_after_retry_cap(self):
        sim = EventSimulator()
        given_up = []
        a = Endpoint(
            "a",
            jitter_s=0.0,
            max_retries=2,
            on_give_up=given_up.append,
        )
        b = Endpoint("b", jitter_s=0.0)
        sim.register_node(a)
        sim.register_node(b)
        sim.connect("a", "b")
        sim.fault_injector = _LossySwitch(drops=10)
        a.transport.send(_report())
        sim.run()
        assert a.transport.gave_up == 1
        assert a.transport.retransmissions == 2  # the cap
        assert [m.kind for m in given_up] == ["EnergyReport"]
        assert len(a.transport._pending) == 0
        assert b.processed == []


class TestDeterminism:
    def test_jitter_stream_is_seeded_per_node(self):
        t1 = np.random.default_rng(node_seed("cam-7")).uniform(0, 1, 4)
        t2 = np.random.default_rng(node_seed("cam-7")).uniform(0, 1, 4)
        t3 = np.random.default_rng(node_seed("cam-8")).uniform(0, 1, 4)
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, t3)

    def test_unsequenced_constant(self):
        assert _report().seq == UNSEQUENCED

    def test_rejects_bad_parameters(self):
        node = Endpoint("x", reliable=False)
        with pytest.raises(ValueError):
            ReliableTransport(node, timeout_s=0.0)
        with pytest.raises(ValueError):
            ReliableTransport(node, max_retries=-1)
        with pytest.raises(ValueError):
            ReliableTransport(node, backoff_factor=0.5)
