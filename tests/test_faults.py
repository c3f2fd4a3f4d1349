"""Fault injection and fault-tolerant coordination.

Covers the fault plan (JSON round-trip, matching), the injector
(crashes, reboots, battery exhaustion, partitions, lossy links), the
simulator's failure semantics (disconnect/reconnect, down nodes,
duplicate-connect guard), camera depletion behaviour, controller
liveness + re-selection after a crash, and the zero-fault determinism
regression pinning today's outputs bit-for-bit.
"""

import json
import math

import numpy as np
import pytest

from repro.energy.battery import Battery
from repro.energy.model import ProcessingEnergyModel
from repro.faults import (
    BatteryFault,
    CalibrationDrift,
    ClockSkew,
    Crash,
    FaultInjector,
    FaultPlan,
    LinkFault,
    MessageCorruption,
    Partition,
    SensorFault,
)
from repro.network.messages import EnergyReport
from repro.network.node import CameraSensorNode, ControllerNode
from repro.network.reliability import node_seed
from repro.network.simulator import EventSimulator, Node
from tests.golden_utils import network_spec


class Recorder(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def receive(self, message):
        self.received.append(message)


def _pair():
    sim = EventSimulator()
    a, b = Recorder("a"), Recorder("b")
    sim.register_node(a)
    sim.register_node(b)
    sim.connect("a", "b")
    return sim, a, b


def _report(joules=1.0):
    return EnergyReport(sender="a", recipient="b", residual_joules=joules)


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=11,
            link_faults=(
                LinkFault("a", "b", loss_rate=0.3, extra_latency_s=0.1),
                LinkFault(loss_rate=0.05, start_s=2.0),
            ),
            partitions=(Partition("a", "b", start_s=1.0, end_s=4.0),),
            crashes=(Crash("a", at_s=3.0, reboot_s=5.0),),
            battery_faults=(BatteryFault("b", at_s=2.0, fraction=0.5),),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.load(path) == plan
        # Open-ended windows serialise as null, not Infinity.
        assert "Infinity" not in path.read_text()
        assert json.loads(path.read_text())["link_faults"][1]["end_s"] is None

    def test_wildcard_matching(self):
        fault = LinkFault(loss_rate=0.1)
        assert fault.matches("x", "y", 0.0)
        named = LinkFault("a", "*", loss_rate=0.1)
        assert named.matches("a", "z", 0.0)
        assert named.matches("z", "a", 0.0)
        assert not named.matches("x", "y", 0.0)

    def test_time_window(self):
        fault = LinkFault(loss_rate=0.1, start_s=1.0, end_s=2.0)
        assert not fault.matches("x", "y", 0.5)
        assert fault.matches("x", "y", 1.0)
        assert not fault.matches("x", "y", 2.0)

    def test_uniform_loss_zero_is_empty(self):
        assert FaultPlan.uniform_loss(0.0, seed=3) == FaultPlan(seed=3)
        assert FaultPlan.uniform_loss(0.2, seed=3).link_faults

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFault(loss_rate=1.5)
        with pytest.raises(ValueError):
            Partition("a", "b", start_s=2.0, end_s=1.0)
        with pytest.raises(ValueError):
            Crash("a", at_s=2.0, reboot_s=1.0)
        with pytest.raises(ValueError):
            BatteryFault("a", at_s=0.0, fraction=0.0)

    def test_data_fault_round_trip(self, tmp_path):
        """The data-plane fault classes survive the JSON round trip,
        open-ended windows included."""
        plan = FaultPlan(seed=3).with_data_faults(
            SensorFault("a", noise=0.5, false_positive_rate=2.0),
            SensorFault("b", start_s=1.0, end_s=9.0, stuck=True),
            CalibrationDrift("a", score_drift_per_s=-0.1),
            ClockSkew("b", skew=0.5, start_s=2.0),
            MessageCorruption(node_a="a", rate=0.25),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.load(path) == plan
        assert "Infinity" not in path.read_text()

    def test_truncated_plan_file_raises(self, tmp_path):
        """A half-written plan must fail loudly, not load as empty."""
        path = tmp_path / "plan.json"
        full = json.dumps(FaultPlan(seed=1).to_dict())
        path.write_text(full[: len(full) // 2])
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.load(path)

    def test_future_versioned_kind_is_named(self, tmp_path):
        """A plan written by a future schema version (an unknown fault
        kind) is rejected with the offending kind in the message."""
        data = FaultPlan(seed=1).to_dict()
        data["quantum_faults"] = [{"node_id": "a", "at_s": 1.0}]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="quantum_faults"):
            FaultPlan.load(path)

    def test_unexpected_field_names_kind_and_field(self):
        data = FaultPlan(seed=1).to_dict()
        data["crashes"] = [{"node_id": "a", "at_s": 1.0, "rebot_s": 2.0}]
        with pytest.raises(
            ValueError, match=r"crashes\[0\].*rebot_s"
        ):
            FaultPlan.from_dict(data)

    def test_missing_required_field_is_named(self):
        data = FaultPlan(seed=1).to_dict()
        data["sensor_faults"] = [{"noise": 0.5}]
        with pytest.raises(
            ValueError, match=r"sensor_faults\[0\].*node_id"
        ):
            FaultPlan.from_dict(data)

    def test_invalid_field_value_is_located(self):
        data = FaultPlan(seed=1).to_dict()
        data["link_faults"] = [{"loss_rate": 3.0}]
        with pytest.raises(ValueError, match=r"link_faults\[0\]"):
            FaultPlan.from_dict(data)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan.from_dict({"seed": "eleven"})

    def test_non_object_plan_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_dict(["not", "a", "plan"])

    def test_with_data_faults_rejects_unknown_type(self):
        with pytest.raises(TypeError, match="Crash"):
            FaultPlan().with_data_faults(Crash("a", at_s=1.0))


class TestSimulatorTopology:
    def test_connect_refuses_silent_overwrite(self):
        sim, a, b = _pair()
        with pytest.raises(ValueError, match="already linked"):
            sim.connect("a", "b")
        with pytest.raises(ValueError, match="already linked"):
            sim.connect("b", "a")
        sim.connect("a", "b", replace=True)  # explicit swap is fine

    def test_disconnect_drops_but_still_charges_sender(self):
        sim, a, b = _pair()
        energy = []
        a.on_transmit = lambda n, e: energy.append(e)
        sim.disconnect("a", "b")
        a.send(_report())
        sim.run()
        assert b.received == []
        assert sim.dropped_messages == 1
        assert energy and energy[0] > 0  # radio keyed up into the void

    def test_reconnect_restores_delivery(self):
        sim, a, b = _pair()
        sim.disconnect("a", "b")
        sim.reconnect("a", "b")
        a.send(_report())
        sim.run()
        assert len(b.received) == 1

    def test_disconnect_unknown_pair_raises(self):
        sim, a, b = _pair()
        with pytest.raises(KeyError):
            sim.disconnect("a", "zz")
        with pytest.raises(KeyError):
            sim.reconnect("a", "b")  # never severed

    def test_down_recipient_drops_in_flight(self):
        sim, a, b = _pair()
        a.send(_report())
        sim.set_node_down("b")
        sim.run()
        assert b.received == []
        assert sim.dropped_messages == 1

    def test_down_sender_spends_no_energy(self):
        sim, a, b = _pair()
        energy = []
        a.on_transmit = lambda n, e: energy.append(e)
        sim.set_node_down("a")
        a.send(_report())
        sim.run()
        assert energy == []
        assert sim.dropped_messages == 1
        sim.set_node_up("a")
        a.send(_report())
        sim.run()
        assert len(b.received) == 1


class TestInjector:
    def test_seeded_loss_is_deterministic(self):
        def run(seed):
            sim, a, b = _pair()
            injector = FaultInjector(FaultPlan.uniform_loss(0.5, seed=seed))
            injector.attach(sim)
            for i in range(40):
                a.send(_report(float(i)))
            sim.run()
            return [m.residual_joules for m in b.received]

        assert run(1) == run(1)
        assert run(1) != run(2)
        assert 0 < len(run(1)) < 40

    def test_empty_plan_never_touches_rng_or_drops(self):
        sim, a, b = _pair()
        injector = FaultInjector(FaultPlan(seed=9))
        injector.attach(sim)
        state_before = injector.rng.bit_generator.state
        for i in range(10):
            a.send(_report(float(i)))
        sim.run()
        assert len(b.received) == 10
        assert sim.dropped_messages == 0
        assert injector.rng.bit_generator.state == state_before

    def test_latency_spike_delays_delivery(self):
        sim, a, b = _pair()
        injector = FaultInjector(
            FaultPlan(link_faults=(LinkFault(extra_latency_s=3.0),))
        )
        injector.attach(sim)
        a.send(_report())
        sim.run()
        assert len(b.received) == 1
        assert sim.now >= 3.0

    def test_partition_window(self):
        sim, a, b = _pair()
        injector = FaultInjector(
            FaultPlan(partitions=(Partition("a", "b", 1.0, 2.0),))
        )
        injector.attach(sim)
        sim.schedule(1.5, lambda: a.send(_report(1.0)))
        sim.schedule(2.5, lambda: a.send(_report(2.0)))
        sim.run()
        assert [m.residual_joules for m in b.received] == [2.0]
        kinds = [e.kind for e in injector.log.faults]
        assert "link_partition" in kinds
        assert [e.kind for e in injector.log.recoveries] == ["link_restored"]

    def test_crash_and_reboot_events(self):
        sim, a, b = _pair()
        injector = FaultInjector(
            FaultPlan(crashes=(Crash("b", at_s=1.0, reboot_s=2.0),))
        )
        injector.attach(sim)
        sim.schedule(1.5, lambda: a.send(_report(1.0)))
        sim.schedule(2.5, lambda: a.send(_report(2.0)))
        sim.run()
        assert [m.residual_joules for m in b.received] == [2.0]
        assert [e.kind for e in injector.log.faults] == ["node_crash"]
        assert [e.kind for e in injector.log.recoveries] == ["node_reboot"]

    def test_double_attach_rejected(self):
        sim, _, _ = _pair()
        injector = FaultInjector(FaultPlan())
        injector.attach(sim)
        with pytest.raises(RuntimeError):
            injector.attach(sim)


class TestBatteryHardening:
    def test_overdraw_clamps_at_zero(self):
        battery = Battery(capacity_joules=10.0)
        assert battery.draw(25.0) == 10.0
        assert battery.residual == 0.0
        assert battery.is_depleted
        assert battery.draw(5.0) == 0.0
        assert battery.residual == 0.0


def _camera(observations, battery=None, **kwargs):
    from repro.detection.detectors import make_detector_suite
    from repro.world.environment import LAB

    return CameraSensorNode(
        node_id=kwargs.pop("node_id", "cam"),
        controller_id="sink",
        observations=observations,
        detectors=make_detector_suite(LAB),
        thresholds={"HOG": 0.5, "ACF": 2.0},
        energy_model=ProcessingEnergyModel(width=360, height=288),
        battery=battery,
        **kwargs,
    )


class TestCameraFaultBehaviour:
    @pytest.fixture()
    def wired(self, dataset1):
        records = dataset1.frames(0, 100, only_ground_truth=True)
        observations = [
            r.observation(dataset1.camera_ids[0]) for r in records
        ]
        sim = EventSimulator()
        sink = Recorder("sink")
        camera = _camera(observations, battery=Battery(capacity_joules=3.0))
        sim.register_node(sink)
        sim.register_node(camera)
        sim.connect("cam", "sink")
        return sim, sink, camera

    def test_default_rng_derived_from_node_id(self, dataset1):
        records = dataset1.frames(0, 50, only_ground_truth=True)
        obs = [r.observation(dataset1.camera_ids[0]) for r in records]
        cam_a = _camera(obs, node_id="cam-a")
        cam_b = _camera(obs, node_id="cam-b")
        # Two unconfigured nodes must not share one stream.
        draws_a = cam_a.rng.uniform(0, 1, 4)
        draws_b = cam_b.rng.uniform(0, 1, 4)
        assert not np.array_equal(draws_a, draws_b)
        # And the default is reproducible per node id.
        again = _camera(obs, node_id="cam-a")
        assert np.array_equal(
            again.rng.uniform(0, 1, 4),
            np.random.default_rng(node_seed("cam-a")).uniform(0, 1, 4),
        )

    def test_depleted_camera_stops_processing_and_transmitting(self, wired):
        sim, sink, camera = wired
        camera.active_algorithm = "HOG"
        for _ in range(20):  # 3 J battery dies within a few HOG frames
            if not camera.process_next_frame():
                break
        assert camera.battery.is_depleted
        frames_before = camera.frames_processed
        assert not camera.process_next_frame()
        assert camera.frames_processed == frames_before
        sent_before = sim.transferred_bytes + len(sink.received)
        camera.report_energy()
        sim.run()
        assert camera.suppressed_sends > 0
        # Nothing new left the radio after depletion.
        metadata = [m for m in sink.received if m.kind == "EnergyReport"]
        assert metadata == []

    def test_crashed_camera_ignores_messages(self, wired):
        sim, sink, camera = wired
        camera.crash()
        from repro.network.messages import AlgorithmAssignment

        camera.receive(AlgorithmAssignment(
            sender="sink", recipient="cam", algorithm="HOG",
        ))
        assert camera.active_algorithm is None
        assert not camera.process_next_frame()

    def test_reboot_reports_energy(self, dataset1):
        records = dataset1.frames(0, 100, only_ground_truth=True)
        observations = [
            r.observation(dataset1.camera_ids[0]) for r in records
        ]
        sim = EventSimulator()
        sink = Recorder("sink")
        camera = _camera(observations)
        sim.register_node(sink)
        sim.register_node(camera)
        sim.connect("cam", "sink")
        camera.crash()
        camera.reboot()
        sim.run()
        assert [m.kind for m in sink.received] == ["EnergyReport"]


class TestZeroFaultDeterminism:
    """Regression: the fault subsystem must not perturb clean runs.

    The pinned constants are the pre-fault-PR outputs of the same
    seeds; any drift here means zero-fault behaviour changed.
    """

    def test_runner_outputs_bit_identical(self, runner1):
        result = runner1.run("full", budget=2.0, start=1000, end=2000)
        assert result.humans_detected == 215
        assert result.humans_present == 240
        assert result.frames_evaluated == 40
        assert repr(result.energy_joules) == "125.64065924651223"
        assert repr(result.processing_joules) == "125.58974724651219"
        assert repr(result.communication_joules) == "0.050912"
        assert repr(result.mean_fused_probability) == "0.45893564808749976"

    def test_networked_round_bit_identical(self, runner1, dataset1):
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
        controller_node.start_assessment(
            {c: ["HOG", "ACF"] for c in dataset1.camera_ids}
        )
        sim.run()
        assert sim.delivered_messages == 28
        assert sim.dropped_messages == 0
        assert sim.transferred_bytes == 11804
        assert repr(sim.now) == "0.020536"
        assert controller_node.decisions[0].assignment == {
            "lab-cam1": "HOG", "lab-cam3": "HOG", "lab-cam4": "HOG",
        }
        assert {
            c: repr(n.battery.consumed) for c, n in nodes.items()
        } == {
            "lab-cam1": "2.304408389209978",
            "lab-cam2": "2.303376389209978",
            "lab-cam3": "2.304408389209978",
            "lab-cam4": "2.304150389209978",
        }


class TestControllerLivenessAndReselection:
    def test_crash_triggers_dead_mark_and_reselection(self, runner1):
        result = network_spec(10, crash_count=1).execute(engine=runner1)
        kinds = result.fault_kinds()
        assert "node_crash" in kinds
        assert "camera_marked_dead" in kinds
        assert "reselected" in [e.kind for e in result.recovery_events]
        assert result.num_decisions >= 2
        crashed = runner1.dataset.camera_ids[0]
        assert crashed not in result.final_assignment
        # The shared runner's controller was not touched.
        assert runner1.controller.alive_camera_ids == (
            runner1.controller.camera_ids
        )

    def test_lossy_run_retransmits_and_charges_energy(self, runner1):
        clean = network_spec(8).execute(engine=runner1)
        lossy = network_spec(8, loss_rate=0.25).execute(engine=runner1)
        assert clean.retransmissions == 0
        assert clean.dropped_messages == 0
        assert lossy.retransmissions > 0
        assert lossy.dropped_messages > 0
        # Retransmissions cost the senders real Joules: some camera
        # paid more for its radio than in the clean run.
        deltas = [
            lossy.battery_by_camera[c] - clean.battery_by_camera[c]
            for c in clean.battery_by_camera
        ]
        assert max(deltas) > 0

    def test_chaos_run_is_deterministic(self, runner1):
        spec = network_spec(8, loss_rate=0.2, crash_count=1)
        first = spec.execute(engine=runner1)
        second = spec.execute(engine=runner1)
        assert first.humans_detected == second.humans_detected
        assert first.battery_by_camera == second.battery_by_camera
        assert first.fault_kinds() == second.fault_kinds()
        assert first.delivered_messages == second.delivered_messages

    def test_heartbeat_revives_marked_dead_camera(self, runner1):
        spec = network_spec(12, crash_count=1, reboot_s=25.0)
        result = spec.execute(engine=runner1)
        recovery_kinds = [e.kind for e in result.recovery_events]
        assert "node_reboot" in recovery_kinds
        assert "camera_marked_alive" in recovery_kinds
        # Re-selection ran at least twice: at death and at revival.
        assert recovery_kinds.count("reselected") >= 2
