"""Tests for the network substrate: links, simulator, messages, nodes."""

import numpy as np
import pytest

from repro.network.link import WirelessLink
from repro.network.messages import (
    AlgorithmAssignment,
    AssessmentRequest,
    DetectionMetadata,
    EnergyReport,
    FeatureUpload,
    Message,
)
from repro.network.simulator import EventSimulator, Node


class Recorder(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []
        self.transmitted_bytes = 0

    def receive(self, message):
        self.received.append(message)

    def on_transmit(self, num_bytes, energy_joules):
        self.transmitted_bytes += num_bytes


@pytest.fixture()
def pair():
    sim = EventSimulator()
    a, b = Recorder("a"), Recorder("b")
    sim.register_node(a)
    sim.register_node(b)
    sim.connect("a", "b", WirelessLink(bandwidth_bps=1e6, latency_s=0.01))
    return sim, a, b


class TestWirelessLink:
    def test_transfer_time_includes_latency(self):
        link = WirelessLink(bandwidth_bps=8e6, latency_s=0.01)
        # 1000 bytes = 8000 bits at 8 Mbps = 1 ms + 10 ms latency.
        assert link.transfer_time(1000) == pytest.approx(0.011)

    def test_transfer_energy_linear(self):
        link = WirelessLink()
        assert link.transfer_energy(2000) == pytest.approx(
            2 * link.transfer_energy(1000)
        )

    def test_weak_link_more_energy(self):
        good = WirelessLink()
        weak = WirelessLink(link_quality=2.0)
        assert weak.transfer_energy(100) == pytest.approx(
            2 * good.transfer_energy(100)
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WirelessLink(bandwidth_bps=0)
        with pytest.raises(ValueError):
            WirelessLink(link_quality=0.5)


class TestMessages:
    def test_feature_upload_size(self):
        msg = FeatureUpload(
            sender="a", recipient="b", features=np.zeros((10, 4180))
        )
        assert msg.size_bytes == 64 + 10 * 16720

    def test_metadata_size_172_per_object(self):
        from repro.detection.base import BoundingBox, Detection

        dets = [
            Detection(
                bbox=BoundingBox(0, 0, 1, 1),
                score=0.5,
                camera_id="a",
                frame_index=0,
                algorithm="HOG",
            )
            for _ in range(3)
        ]
        msg = DetectionMetadata(
            sender="a", recipient="b", detections=dets
        )
        assert msg.size_bytes == 64 + 3 * 172

    def test_kind(self):
        msg = EnergyReport(sender="a", recipient="b")
        assert msg.kind == "EnergyReport"


class TestEventSimulator:
    def test_events_run_in_time_order(self, pair):
        sim, a, b = pair
        order = []
        sim.schedule(0.3, lambda: order.append("late"))
        sim.schedule(0.1, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_tied_times_run_in_schedule_order(self):
        """Events run in (time, schedule order): ties never reorder."""
        sim = EventSimulator()
        delays = np.random.default_rng(0).integers(0, 20, size=1000) * 0.25
        order = []
        for index, delay in enumerate(delays):
            sim.schedule(float(delay), lambda i=index: order.append(i))
        assert sim.run() == 1000
        assert order == sorted(range(1000), key=lambda i: (delays[i], i))
        assert sim.now == delays.max()

    def test_unorderable_callbacks_at_the_same_time(self):
        """Two callbacks due at the same instant are never compared."""

        class Unorderable:
            def __init__(self, log):
                self.log = log

            def __call__(self):
                self.log.append(self)

            def __eq__(self, other):
                raise AssertionError("callbacks were compared")

            __lt__ = __gt__ = __le__ = __ge__ = __eq__
            __hash__ = object.__hash__

        sim = EventSimulator()
        log = []
        first, second = Unorderable(log), Unorderable(log)
        sim.schedule(1.0, first)
        sim.schedule(1.0, second)
        sim.run()
        assert log[0] is first and log[1] is second

    def test_message_delivery(self, pair):
        sim, a, b = pair
        a.send(EnergyReport(sender="a", recipient="b", residual_joules=5.0))
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].residual_joules == 5.0
        assert sim.delivered_messages == 1

    def test_sender_charged_transmit_bytes(self, pair):
        sim, a, b = pair
        msg = EnergyReport(sender="a", recipient="b")
        a.send(msg)
        sim.run()
        assert a.transmitted_bytes == msg.size_bytes

    def test_delivery_delayed_by_transfer_time(self, pair):
        sim, a, b = pair
        a.send(EnergyReport(sender="a", recipient="b"))
        sim.run()
        assert sim.now >= 0.01  # at least the link latency

    def test_run_until(self, pair):
        sim, a, b = pair
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [1]

    def test_unconnected_nodes_raise(self):
        sim = EventSimulator()
        a, c = Recorder("a"), Recorder("c")
        sim.register_node(a)
        sim.register_node(c)
        with pytest.raises(KeyError):
            a.send(EnergyReport(sender="a", recipient="c"))

    def test_duplicate_node_rejected(self, pair):
        sim, a, b = pair
        with pytest.raises(ValueError):
            sim.register_node(Recorder("a"))

    def test_negative_delay_rejected(self, pair):
        sim, _, _ = pair
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_detached_node_cannot_send(self):
        node = Recorder("x")
        with pytest.raises(RuntimeError):
            node.send(EnergyReport(sender="x", recipient="y"))


class TestNetworkedRound:
    """End-to-end protocol round over the simulator, on a small slice
    of dataset #1 (reuses the session-trained runner)."""

    def test_assessment_round_produces_decision(self, runner1, dataset1):
        from repro.energy.model import ProcessingEnergyModel
        from repro.network.node import CameraSensorNode, ControllerNode

        records = dataset1.frames(1000, 1200, only_ground_truth=True)
        env = dataset1.environment
        model = ProcessingEnergyModel(width=env.width, height=env.height)

        sim = EventSimulator()
        controller_node = ControllerNode(
            "ctrl", runner1.controller, assessment_frames=2, budget=2.0
        )
        sim.register_node(controller_node)

        nodes = {}
        for camera_id in dataset1.camera_ids:
            item = runner1.library.get(f"T-{camera_id}")
            node = CameraSensorNode(
                node_id=camera_id,
                controller_id="ctrl",
                observations=[r.observation(camera_id) for r in records],
                detectors=runner1.detectors,
                thresholds={
                    n: p.threshold for n, p in item.profiles.items()
                },
                energy_model=model,
                rng=np.random.default_rng(1),
            )
            nodes[camera_id] = node
            sim.register_node(node)
            sim.connect(camera_id, "ctrl")
            node.start()
        sim.run()
        assert len(controller_node.energy_reports) == 4

        controller_node.start_assessment(
            {c: ["HOG", "ACF"] for c in dataset1.camera_ids}
        )
        sim.run()
        assert len(controller_node.decisions) == 1
        decision = controller_node.decisions[0]
        assert decision.assignment

        # Cameras received their assignments.
        for camera_id, node in nodes.items():
            expected = decision.assignment.get(camera_id)
            assert node.active_algorithm == expected

        # Active cameras process operational frames and drain battery.
        active = [
            nodes[c] for c in decision.assignment
        ]
        before = [n.battery.consumed for n in active]
        for node in active:
            assert node.process_next_frame()
        sim.run()
        for node, b in zip(active, before):
            assert node.battery.consumed > b
