"""Graceful-degradation layer: breaker, health monitor, ladder.

Covers the :mod:`repro.resilience` subsystem end to end — the
circuit-breaker state machine (seeded jittered backoff, half-open
probe discipline, snapshot round-trip), the health monitor's channels
(residual z-gating, stuck frames, corruption/give-up decay, heartbeat
floor, battery slope), the staged ladder (degrade → quarantine →
probe → readmit with recalibration), and the two integration
guarantees the tentpole promises:

* **inertness** — with the layer enabled and no faults injected,
  every policy stays bit-identical to the pre-refactor goldens;
* **recovery** — under injected faults the ladder engages, transitions
  land in the event log, breakers cut off retry storms with a
  structured ``transport_give_up`` record, and a checkpoint taken
  while a camera is quarantined resumes bit-identically.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    RunCheckpointer,
    SimulatedCrash,
)
from repro.core.controller import (
    CAMERA_ACTIVE,
    CAMERA_DEGRADED,
    CAMERA_QUARANTINED,
)
from repro.faults.events import FaultLog
from repro.faults.plan import FaultPlan, LinkFault, MessageCorruption, SensorFault
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
    ResilienceConfig,
    ResilienceCoordinator,
    build_coordinator,
    config_with_thresholds,
)
from tests.golden_utils import (
    chaos_result_fingerprint,
    golden_run_configs,
    load_golden,
    network_horizon_s,
    network_spec,
    run_result_fingerprint,
)

ON = ResilienceConfig(enabled=True)


def normalize(fingerprint):
    return json.loads(json.dumps(fingerprint))


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        defaults = dict(
            failure_threshold=3,
            reset_timeout_s=1.0,
            backoff_factor=2.0,
            max_reset_timeout_s=60.0,
            jitter_s=0.0,
            rng=np.random.default_rng(42),
        )
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_trips_after_threshold_and_blocks(self):
        breaker = self._breaker()
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state == CLOSED
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == OPEN
        assert not breaker.allow(0.5)
        assert breaker.blocked == 1

    def test_success_resets_failure_count(self):
        breaker = self._breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == CLOSED

    def test_half_open_single_probe_then_close(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.state == OPEN
        assert breaker.allow(breaker.retry_at)  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(breaker.retry_at)  # only one probe
        breaker.record_success(breaker.retry_at + 0.1)
        assert breaker.state == CLOSED
        assert breaker.allow(breaker.retry_at + 0.2)

    def test_reopen_backs_off_exponentially_with_cap(self):
        breaker = self._breaker(max_reset_timeout_s=3.0)
        for _ in range(3):
            breaker.record_failure(0.0)
        first = breaker.retry_at - 0.0  # 1.0
        assert first == pytest.approx(1.0)
        now = breaker.retry_at
        assert breaker.allow(now)  # half-open probe
        breaker.record_failure(now)  # probe fails: reopen, longer
        second = breaker.retry_at - now
        assert second == pytest.approx(2.0)
        now = breaker.retry_at
        assert breaker.allow(now)
        breaker.record_failure(now)
        assert breaker.retry_at - now == pytest.approx(3.0)  # capped

    def test_jitter_is_seeded_and_deterministic(self):
        def tripped(seed):
            breaker = self._breaker(
                jitter_s=0.5, rng=np.random.default_rng(seed)
            )
            for _ in range(3):
                breaker.record_failure(0.0)
            return breaker.retry_at

        assert tripped(7) == tripped(7)
        assert tripped(7) != tripped(8)

    def test_healthy_breaker_never_draws_rng(self):
        """No rng consumption without an open: fault-free runs stay
        bit-identical no matter how much traffic the breaker sees."""
        breaker = self._breaker(jitter_s=0.5, rng=np.random.default_rng(9))
        for t in range(50):
            assert breaker.allow(float(t))
            breaker.record_success(float(t))
        breaker.record_failure(50.0)  # below threshold: still no draw
        assert (
            breaker.rng.bit_generator.state
            == np.random.default_rng(9).bit_generator.state
        )

    def test_snapshot_restore_round_trip(self):
        breaker = self._breaker(jitter_s=0.25)
        for _ in range(3):
            breaker.record_failure(2.0)
        snap = json.loads(json.dumps(breaker.snapshot()))
        clone = self._breaker(jitter_s=0.25)
        clone.restore(snap)
        assert clone.snapshot() == breaker.snapshot()
        assert clone.state == OPEN
        assert not clone.allow(clone.retry_at - 0.1)


# ----------------------------------------------------------------------
# Health monitor
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_unknown_camera_is_healthy(self):
        monitor = HealthMonitor()
        assert monitor.health("cam") == 1.0
        assert set(monitor.channels("cam").values()) == {1.0}

    def test_clean_traffic_stays_healthy(self):
        monitor = HealthMonitor()
        for i in range(20):
            monitor.observe_detections("cam", "ACF", i, [1.0, 1.2])
        assert monitor.health("cam") == 1.0

    def test_garbage_trips_residual_without_teaching_baseline(self):
        monitor = HealthMonitor(HealthConfig(min_samples=4))
        for i in range(8):
            monitor.observe_detections("cam", "ACF", i, [1.0, 1.1])
        learned = monitor._cameras["cam"].count_baselines["ACF"].count
        for i in range(8, 12):
            monitor.observe_detections("cam", "ACF", i, [5.0] * 9)
        channels = monitor.channels("cam")
        assert channels["residual"] < 1.0
        assert monitor.health("cam") < 1.0
        # z-gated learning: the fabricated burst is not absorbed, so a
        # faulty camera cannot normalise its own garbage.
        assert (
            monitor._cameras["cam"].count_baselines["ACF"].count == learned
        )

    def test_stuck_frames_trip_after_repeats(self):
        monitor = HealthMonitor()
        for _ in range(3):  # identical (frame, scores) signature
            monitor.observe_detections("cam", "ACF", 5, [1.0, 0.8])
        assert monitor.channels("cam")["stuck"] == 0.15
        # A fresh frame clears the repeat counter.
        monitor.observe_detections("cam", "ACF", 6, [1.0, 0.8])
        assert monitor.channels("cam")["stuck"] == 1.0

    def test_corruption_counts_decay(self):
        monitor = HealthMonitor()
        for _ in range(4):
            monitor.observe_corruption("cam")
        assert monitor.channels("cam")["corruption"] == pytest.approx(0.5)
        monitor.decay_transients()
        assert monitor.channels("cam")["corruption"] == 1.0

    def test_give_ups_decay_like_corruption(self):
        monitor = HealthMonitor()
        for _ in range(8):
            monitor.observe_give_up("cam")
        assert monitor.channels("cam")["transport"] == pytest.approx(0.25)
        for _ in range(2):
            monitor.decay_transients()
        assert monitor.channels("cam")["transport"] == 1.0

    def test_heartbeat_misses_are_floored(self):
        monitor = HealthMonitor()
        for _ in range(10):
            monitor.observe_miss("cam")
        config = monitor.config
        assert monitor.channels("cam")["heartbeat"] == config.miss_floor
        monitor.observe_heartbeat("cam", 10.0, 500.0)
        assert monitor.channels("cam")["heartbeat"] == 1.0

    def test_battery_slope_from_heartbeat_residuals(self):
        monitor = HealthMonitor()
        monitor.observe_heartbeat("cam", 0.0, 1000.0)
        monitor.observe_heartbeat("cam", 1.0, 900.0)  # 100 J/s drain
        assert monitor.channels("cam")["battery"] == pytest.approx(0.25)

    def test_reset_baseline_forgets_everything(self):
        monitor = HealthMonitor()
        for _ in range(3):
            monitor.observe_detections("cam", "ACF", 5, [1.0])
            monitor.observe_corruption("cam")
            monitor.observe_miss("cam")
        assert monitor.health("cam") < 1.0
        monitor.reset_baseline("cam")
        assert monitor.health("cam") == 1.0

    def test_snapshot_json_round_trip(self):
        monitor = HealthMonitor()
        for i in range(8):
            monitor.observe_detections("cam", "ACF", i, [1.0, 1.1])
        monitor.observe_corruption("cam")
        monitor.observe_heartbeat("cam", 0.0, 1000.0)
        monitor.observe_heartbeat("cam", 2.0, 990.0)
        monitor.observe_miss("cam")
        snap = json.loads(json.dumps(monitor.snapshot()))
        clone = HealthMonitor()
        clone.restore(snap)
        assert clone.channels("cam") == monitor.channels("cam")
        assert clone.snapshot() == monitor.snapshot()


# ----------------------------------------------------------------------
# Ladder
# ----------------------------------------------------------------------
class TestLadder:
    def test_build_coordinator_disabled_is_none(self):
        assert build_coordinator(None, ["a"]) is None
        assert build_coordinator(ResilienceConfig(enabled=False), ["a"]) is None
        coordinator = build_coordinator(ON, ["a", "b"])
        assert coordinator.modes == {
            "a": CAMERA_ACTIVE,
            "b": CAMERA_ACTIVE,
        }

    def test_quarantine_then_decay_then_readmit(self):
        log = FaultLog()
        coordinator = ResilienceCoordinator(config=ON, fault_log=log)
        coordinator.register("cam")
        readmitted = []
        coordinator.on_readmit = lambda cam, now: readmitted.append((cam, now))
        for _ in range(40):
            coordinator.monitor.observe_corruption("cam")
        moves = coordinator.evaluate(1.0)
        assert [(t.camera_id, t.new_mode) for t in moves] == [
            ("cam", CAMERA_QUARANTINED)
        ]
        # Transient evidence decays at each tick; once the corruption
        # stops arriving the camera heals past the readmit threshold.
        now, modes = 1.0, []
        while coordinator.mode("cam") != CAMERA_ACTIVE:
            now += 1.0
            assert now < 20.0, "camera never recovered"
            modes += [t.new_mode for t in coordinator.evaluate(now)]
        assert modes == [CAMERA_ACTIVE]
        assert readmitted == [("cam", now)]
        fault_kinds = [e.kind for e in log.faults]
        recovery_kinds = [e.kind for e in log.recoveries]
        assert "camera_quarantined" in fault_kinds
        assert "camera_readmitted" in recovery_kinds
        assert "camera_recalibrated" in recovery_kinds

    def test_hysteresis_holds_degraded_between_thresholds(self):
        coordinator = ResilienceCoordinator(config=ON)
        coordinator.register("cam")
        for _ in range(5):
            coordinator.monitor.observe_corruption("cam")
        # health = 2/5 = 0.4: below degrade (0.65), above quarantine.
        moves = coordinator.evaluate(1.0)
        assert [t.new_mode for t in moves] == [CAMERA_DEGRADED]
        # After one decay: 2/2.5 = 0.8 — healthier, but short of the
        # readmit threshold (0.85), so the mode must not flap.
        assert coordinator.evaluate(2.0) == []
        assert coordinator.mode("cam") == CAMERA_DEGRADED
        # Fully decayed: readmitted.
        moves = coordinator.evaluate(3.0)
        assert [t.new_mode for t in moves] == [CAMERA_ACTIVE]

    def test_due_probes_respect_interval(self):
        coordinator = ResilienceCoordinator(config=ON)
        coordinator.register("cam")
        coordinator.modes["cam"] = CAMERA_QUARANTINED
        interval = coordinator.config.probe_interval_s
        assert coordinator.due_probes(10.0) == ["cam"]
        assert coordinator.due_probes(10.0 + interval / 2) == []
        assert coordinator.due_probes(10.0 + interval) == ["cam"]

    def test_snapshot_restore_round_trip(self):
        coordinator = ResilienceCoordinator(config=ON)
        coordinator.register("cam")
        for _ in range(40):
            coordinator.monitor.observe_corruption("cam")
        coordinator.evaluate(1.0)
        coordinator.breaker("cam").record_failure(1.0)
        coordinator.due_probes(2.0)
        snap = json.loads(json.dumps(coordinator.snapshot()))
        clone = ResilienceCoordinator(config=ON)
        clone.restore(snap)
        assert clone.modes == coordinator.modes
        assert clone.snapshot() == coordinator.snapshot()

    def test_restore_rejects_unknown_mode(self):
        coordinator = ResilienceCoordinator(config=ON)
        with pytest.raises(ValueError, match="not one of"):
            coordinator.restore(
                {
                    "modes": {"cam": "haunted"},
                    "monitor": {},
                    "breakers": {},
                    "last_probe": {},
                }
            )

    def test_config_with_thresholds_overrides_and_validates(self):
        tuned = config_with_thresholds(
            ON, degrade_below=0.7, quarantine_below=0.4, readmit_above=0.9
        )
        assert tuned.health.degrade_below == 0.7
        assert tuned.health.quarantine_below == 0.4
        assert tuned.health.readmit_above == 0.9
        assert ON.health.degrade_below == 0.65  # base unchanged
        with pytest.raises(ValueError, match="thresholds"):
            config_with_thresholds(ON, quarantine_below=0.9)


# ----------------------------------------------------------------------
# Inertness: resilience on + zero faults == the goldens, bit for bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def run_goldens():
    return load_golden("run_results")


@pytest.fixture(scope="module")
def chaos_goldens():
    return load_golden("chaos_results")


class TestInertness:
    @pytest.mark.parametrize("name", ["all_best", "subset", "full", "fixed"])
    def test_serial_matches_golden(self, runner1, run_goldens, name):
        configs = golden_run_configs(runner1.dataset.camera_ids)
        result = runner1.run(resilience=ON, **configs[name])
        assert normalize(run_result_fingerprint(result)) == (
            run_goldens[name]
        ), f"resilience-on {name!r} run drifted from the golden"

    def test_zero_fault_chaos_matches_golden(self, runner1, chaos_goldens):
        """The networked path: same fingerprint as the zero-fault
        golden except the (all-active) camera-mode map the enabled
        layer reports."""
        result = network_spec(8, resilience=ON).execute(engine=runner1)
        fingerprint = normalize(chaos_result_fingerprint(result))
        modes = fingerprint.pop("camera_modes")
        assert set(modes.values()) == {CAMERA_ACTIVE}
        golden = dict(chaos_goldens["zero_fault"])
        golden.pop("camera_modes")
        assert fingerprint == golden


# ----------------------------------------------------------------------
# Fault-driven integration: breakers, give-up events, corruption
# ----------------------------------------------------------------------
#: The benchmark operating point: two of four cameras selected.
FRAMES = 14
HORIZON_S = network_horizon_s(FRAMES)


def _spec(**fields):
    return network_spec(FRAMES, budget=1.0, **fields)


class TestFaultIntegration:
    def test_transport_give_up_event_is_structured(self, runner1):
        """A fully lost link exhausts retries: structured
        ``transport_give_up`` records land in the event log (with and
        without the resilience layer), and the guarded run folds the
        give-ups into the camera's health."""
        plan = FaultPlan(
            seed=3,
            link_faults=(
                LinkFault(
                    "controller",
                    "lab-cam3",
                    loss_rate=1.0,
                    start_s=HORIZON_S / 3.0,
                    end_s=HORIZON_S,
                ),
            ),
        )
        bare = _spec(fault_plan=plan).execute(engine=runner1)
        assert "transport_give_up" in bare.fault_kinds()
        give_up = next(
            e for e in bare.fault_events if e.kind == "transport_give_up"
        )
        assert "attempts" in give_up.detail

        guarded = _spec(resilience=ON, fault_plan=plan).execute(
            engine=runner1
        )
        assert "transport_give_up" in guarded.fault_kinds()
        # The controller's give-ups toward the dark camera register as
        # health evidence before liveness declares it dead outright.
        assert "camera_degraded" in guarded.fault_kinds()

    def test_breaker_cuts_off_retry_storm_on_transport(self):
        """Transport-level breaker cycle: consecutive give-ups trip it
        (``breaker_open`` in the log), an open breaker refuses sends
        with no retry ladder, and a successful half-open probe closes
        it again (``breaker_closed``)."""
        from repro.network.link import WirelessLink
        from repro.network.messages import Ack, EnergyReport
        from repro.network.reliability import ReliableTransport
        from repro.network.simulator import EventSimulator, Node

        class Endpoint(Node):
            def __init__(self, node_id, **kwargs):
                super().__init__(node_id)
                self.transport = ReliableTransport(
                    self, jitter_s=0.0, **kwargs
                )
                self.processed = []

            def receive(self, message):
                if isinstance(message, Ack):
                    self.transport.handle_ack(message)
                    return
                if self.transport.accept(message):
                    self.processed.append(message)

        class BlackHole:
            """Drop every data transmission while armed."""

            def __init__(self):
                self.armed = True

            def on_send(self, message):
                from repro.faults.injector import SendVerdict

                return SendVerdict(
                    drop=self.armed and message.kind == "EnergyReport"
                )

        log = FaultLog()
        coordinator = ResilienceCoordinator(
            config=ResilienceConfig(
                enabled=True,
                breaker_failure_threshold=2,
                breaker_jitter_s=0.0,
            ),
            fault_log=log,
        )
        sim = EventSimulator()
        a = Endpoint(
            "a",
            max_retries=1,
            fault_log=log,
            breaker_for=coordinator.breaker,
        )
        b = Endpoint("b")
        sim.register_node(a)
        sim.register_node(b)
        sim.connect("a", "b", WirelessLink(bandwidth_bps=1e6, latency_s=0.01))
        hole = BlackHole()
        sim.fault_injector = hole

        def report():
            return EnergyReport(
                sender="a", recipient="b", residual_joules=1.0
            )

        # Two messages exhaust their retries: the breaker trips.
        a.transport.send(report())
        a.transport.send(report())
        sim.run()
        assert a.transport.gave_up == 2
        breaker = coordinator.breaker("b")
        assert breaker.state == OPEN
        assert "breaker_open" in [e.kind for e in log.faults]
        assert [e.kind for e in log.faults].count("transport_give_up") == 2

        # While open, sends are refused outright: no retry ladder, no
        # radio traffic, just the blocked counter and the give-up hook.
        storm = a.transport.retransmissions
        a.transport.send(report())
        sim.run()
        assert a.transport.breaker_blocked == 1
        assert a.transport.retransmissions == storm

        # After the reset timeout the half-open probe goes through on a
        # healed link and its ack closes the breaker.
        hole.armed = False
        sim.schedule(
            max(0.0, breaker.retry_at - sim.now) + 0.1,
            lambda: a.transport.send(report()),
        )
        sim.run()
        assert breaker.state == CLOSED
        assert "breaker_closed" in [e.kind for e in log.recoveries]
        assert [m.residual_joules for m in b.processed] == [1.0]

    def test_corruption_discard_forces_retransmit(self, runner1):
        plan = FaultPlan(seed=5).with_data_faults(
            MessageCorruption(
                node_a="lab-cam3",
                rate=0.5,
                start_s=HORIZON_S / 3.0,
                end_s=HORIZON_S,
            )
        )
        result = _spec(resilience=ON, fault_plan=plan).execute(engine=runner1)
        assert result.corrupted_received > 0
        assert "message_corrupted" in result.fault_kinds()
        # Discarded-without-ack payloads come back via the retry ladder.
        assert result.retransmissions > 0

    def test_stuck_camera_is_quarantined_and_probed(self, runner1):
        plan = FaultPlan(seed=7).with_data_faults(
            SensorFault(
                node_id="lab-cam3",
                stuck=True,
                start_s=HORIZON_S / 3.0,
                end_s=HORIZON_S,
            )
        )
        result = _spec(resilience=ON, fault_plan=plan).execute(engine=runner1)
        assert result.camera_modes.get("lab-cam3") == CAMERA_QUARANTINED
        assert "camera_quarantined" in result.fault_kinds()
        assert "quarantine_probe" in [
            e.kind for e in result.recovery_events
        ]
        # Quarantine triggered a re-selection over the survivors.
        assert "reselected" in [e.kind for e in result.recovery_events]
        assert "lab-cam3" not in result.final_assignment


# ----------------------------------------------------------------------
# Property: arbitrary fault plans never break the engine
# ----------------------------------------------------------------------
_PROP_FRAMES = 4
_CAMERAS = ("lab-cam1", "lab-cam2", "lab-cam3", "lab-cam4")


@st.composite
def fault_plans(draw):
    """A random seeded FaultPlan mixing every data-plane fault class
    (plus optional uniform loss) over random windows."""
    from repro.faults.plan import CalibrationDrift, ClockSkew

    horizon = network_horizon_s(_PROP_FRAMES)
    plan = FaultPlan.uniform_loss(
        draw(st.sampled_from([0.0, 0.1, 0.3])),
        seed=draw(st.integers(0, 2**16)),
    )
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        camera = draw(st.sampled_from(_CAMERAS))
        start = draw(st.floats(0.0, horizon * 0.6))
        window = {
            "start_s": start,
            "end_s": start + draw(st.floats(1.0, horizon)),
        }
        kind = draw(
            st.sampled_from(["sensor", "drift", "skew", "corruption"])
        )
        if kind == "sensor":
            stuck = draw(st.booleans())
            noise = draw(st.floats(0.0, 1.0))
            if not (stuck or noise):
                noise = 0.5
            faults.append(
                SensorFault(
                    camera,
                    noise=noise,
                    false_positive_rate=draw(st.floats(0.0, 4.0)),
                    stuck=stuck,
                    **window,
                )
            )
        elif kind == "drift":
            faults.append(
                CalibrationDrift(
                    camera,
                    score_drift_per_s=draw(
                        st.sampled_from([-0.2, -0.05, 0.05, 0.2])
                    ),
                    **window,
                )
            )
        elif kind == "skew":
            faults.append(
                ClockSkew(
                    camera,
                    skew=draw(st.sampled_from([-0.5, 0.5, 2.0])),
                    **window,
                )
            )
        else:
            faults.append(
                MessageCorruption(
                    node_a=camera,
                    rate=draw(st.floats(0.05, 1.0)),
                    **window,
                )
            )
    return plan.with_data_faults(*faults)


class TestChaosNeverBreaks:
    @settings(max_examples=6, deadline=None)
    @given(plan=fault_plans(), resilience_on=st.booleans())
    def test_random_plans_produce_valid_results(
        self, runner1, plan, resilience_on
    ):
        """Any plan, resilience on or off: the deployment completes,
        the result is well-formed, and no battery reads negative."""
        spec = network_spec(
            _PROP_FRAMES,
            resilience=ON if resilience_on else None,
            fault_plan=plan,
        )
        result = spec.execute(engine=runner1)
        assert result.humans_present >= 0
        assert 0 <= result.humans_detected
        assert 0.0 <= result.detection_rate <= 1.0 or (
            result.humans_present == 0
        )
        assert result.num_decisions >= 1
        for camera, joules in result.battery_by_camera.items():
            assert math.isfinite(joules), camera
            assert joules >= 0.0, (
                f"battery for {camera} went negative: {joules}"
            )
        if resilience_on:
            assert set(result.camera_modes) == set(_CAMERAS)
        # The plan itself survives its own round trip (the CLI path).
        assert FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        ) == plan


# ----------------------------------------------------------------------
# Quarantine-active kill-and-resume
# ----------------------------------------------------------------------
class TestQuarantineKillAndResume:
    def test_resume_with_quarantine_active_is_bit_identical(
        self, runner1, tmp_path
    ):
        """Crash while a camera sits in quarantine; the resumed run
        must finish bit-identically to the uninterrupted one."""
        plan = FaultPlan(seed=7).with_data_faults(
            SensorFault(
                node_id="lab-cam3",
                stuck=True,
                start_s=HORIZON_S / 3.0,
                end_s=HORIZON_S,
            )
        )
        spec = _spec(resilience=ON, fault_plan=plan)
        reference = spec.execute(engine=runner1)
        assert reference.camera_modes.get("lab-cam3") == CAMERA_QUARANTINED

        with pytest.raises(SimulatedCrash):
            spec.execute(
                engine=runner1,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(
                        directory=tmp_path, every=2, crash_after=10
                    )
                ),
            )
        # The checkpoint really was taken with the quarantine in force:
        # its fault-log digest covers the quarantine event, and resume
        # verifies that digest against the replayed log.
        document = json.loads(CheckpointStore(tmp_path).path.read_text())
        quarantined_at = [e.kind for e in reference.fault_events].index(
            "camera_quarantined"
        )
        assert document["state"]["injector"]["faults_logged"] > (
            quarantined_at
        )

        resumed = spec.execute(
            engine=runner1,
            checkpointer=RunCheckpointer(
                CheckpointConfig(directory=tmp_path, resume=True)
            ),
        )
        assert normalize(chaos_result_fingerprint(resumed)) == normalize(
            chaos_result_fingerprint(reference)
        )
