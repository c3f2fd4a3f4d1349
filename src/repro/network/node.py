"""Camera-sensor and controller nodes speaking the EECS protocol.

These nodes run the paper's Fig. 2 interaction over the discrete-event
simulator: sensors upload features and energy reports at startup, the
controller requests assessments, sensors stream detection metadata,
and the controller pushes algorithm assignments back.  Energy for both
processing and transmission is drawn from each sensor's battery.

Fault tolerance (all opt-in; with ``reliable=False`` and no heartbeats
the behaviour is identical to the fault-free protocol):

* ``reliable=True`` routes protocol messages through a
  :class:`~repro.network.reliability.ReliableTransport` — sequence
  numbers, acks, timeout/backoff retransmission (each attempt charged
  to the sender's battery) and duplicate suppression;
* cameras emit periodic :class:`~repro.network.messages.Heartbeat`
  beacons (:meth:`CameraSensorNode.start_heartbeats`) and stop
  processing and transmitting once crashed or battery-depleted;
* the controller tracks heartbeats
  (:meth:`ControllerNode.enable_liveness`), declares cameras dead
  after a miss threshold, and *re-selects* — re-runs greedy camera
  subset selection and algorithm downgrade over the survivors using
  the last assessment's metadata — so global accuracy degrades
  gracefully instead of silently counting on dead cameras.  Every
  declaration and re-selection is appended to a structured
  :class:`~repro.faults.events.FaultLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.controller import CAMERA_QUARANTINED, EECSController
from repro.core.selection import AssessmentData
from repro.detection.base import Detection
from repro.detection.detectors import SimulatedDetector
from repro.energy.battery import Battery
from repro.energy.model import ProcessingEnergyModel
from repro.faults.events import FaultLog
from repro.network.messages import (
    Ack,
    AlgorithmAssignment,
    AssessmentRequest,
    DetectionMetadata,
    EnergyReport,
    FeatureUpload,
    Heartbeat,
    Message,
)
from repro.network.reliability import ReliableTransport, node_seed
from repro.network.simulator import Node
from repro.world.renderer import FrameObservation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.resilience.ladder import ResilienceCoordinator
    from repro.telemetry.core import Telemetry


class CameraSensorNode(Node):
    """A battery-operated camera sensor.

    The node owns its frame stream (pre-rendered observations), its
    pre-installed detectors, and its battery.  It answers assessment
    requests by running the requested algorithms over the next frames
    and streaming metadata back, and otherwise runs whatever algorithm
    the controller assigned.  A crashed (``alive=False``) or
    battery-depleted node processes nothing and transmits nothing.
    """

    def __init__(
        self,
        node_id: str,
        controller_id: str,
        observations: list[FrameObservation],
        detectors: dict[str, SimulatedDetector],
        thresholds: dict[str, float],
        energy_model: ProcessingEnergyModel,
        battery: Battery | None = None,
        rng: np.random.Generator | None = None,
        reliable: bool = False,
        telemetry: "Telemetry | None" = None,
        fault_log: FaultLog | None = None,
    ) -> None:
        super().__init__(node_id)
        self.controller_id = controller_id
        self.observations = observations
        self.detectors = detectors
        self.thresholds = thresholds
        self.energy_model = energy_model
        self.battery = battery or Battery()
        # Unconfigured nodes must not share one rng stream: derive the
        # default seed from the node id instead of a constant.
        self.rng = (
            rng
            if rng is not None
            else np.random.default_rng(node_seed(node_id))
        )
        self.telemetry = telemetry
        if telemetry is not None:
            self.battery.instrument(
                telemetry, node_id, clock=self._sim_now
            )
        self.transport = (
            ReliableTransport(self, telemetry=telemetry, fault_log=fault_log)
            if reliable
            else None
        )
        self.cursor = 0
        self.active_algorithm: str | None = None
        #: True after the controller explicitly assigned ``None`` —
        #: the camera idles but its frame cursor keeps pace.
        self.standby = False
        self.frames_processed = 0
        self.alive = True
        self.suppressed_sends = 0
        self.corrupted_received = 0
        #: Last healthy (observation, detections) pair — what a stuck
        #: sensor replays while its fault window is active.
        self._stuck_cache: tuple[FrameObservation, list[Detection]] | None = (
            None
        )
        self._heartbeat_interval: float | None = None
        self._heartbeat_until: float | None = None
        self._operation_until: float | None = None

    # ------------------------------------------------------------------
    # Energy accounting hooks
    # ------------------------------------------------------------------
    def _sim_now(self) -> float:
        return self.simulator.now if self.simulator is not None else 0.0

    def on_transmit(self, num_bytes: int, energy_joules: float) -> None:
        drawn = self.battery.draw(energy_joules)
        if self.telemetry is not None:
            from repro.energy.meter import EnergyMeter

            # Radio energy spent inside a transport resend is the price
            # of the lossy link, not of the protocol proper — keep the
            # categories separate so chaos runs show the split.
            category = (
                EnergyMeter.RETRANSMISSION
                if self.transport is not None
                and self.transport.is_retransmitting
                else EnergyMeter.COMMUNICATION
            )
            self.telemetry.energy_counter().inc(
                drawn, node=self.node_id, category=category
            )

    def _run_algorithm(
        self, observation: FrameObservation, algorithm: str
    ) -> list[Detection]:
        self._charge_processing(algorithm)
        if self.telemetry is None:
            return self.detectors[algorithm].detect(
                observation,
                self.rng,
                threshold=self.thresholds.get(algorithm),
            )
        with self.telemetry.tracer.span(
            "camera_op",
            node=self.node_id,
            algorithm=algorithm,
            frame=observation.frame_index,
            sim_time_s=self._sim_now(),
        ):
            detections = self.detectors[algorithm].detect(
                observation,
                self.rng,
                threshold=self.thresholds.get(algorithm),
            )
        self.telemetry.observe_detections(
            self.node_id, algorithm, detections
        )
        return detections

    def _injector(self) -> "FaultInjector | None":
        sim = self.simulator
        return sim.fault_injector if sim is not None else None

    def _interval_scale(self) -> float:
        """Clock-skew multiplier for locally scheduled intervals."""
        injector = self._injector()
        if injector is None:
            return 1.0
        return injector.clock_scale(self.node_id, self._sim_now())

    def _charge_processing(self, algorithm: str) -> None:
        drawn = self.battery.draw(
            self.energy_model.energy_per_frame(algorithm)
        )
        if self.telemetry is not None:
            from repro.energy.meter import EnergyMeter

            self.telemetry.energy_counter().inc(
                drawn, node=self.node_id, category=EnergyMeter.PROCESSING
            )

    def _sense(
        self, observation: FrameObservation, algorithm: str
    ) -> tuple[FrameObservation, list[Detection]]:
        """Run the detector through the sensor-fault lens.

        Returns the observation actually *sensed* plus its detections.
        A stuck sensor replays its last healthy frame wholesale (the
        pipeline still runs — and still drains the battery — but sees
        a frozen frame, so scores and frame index repeat verbatim:
        exactly the signature health scoring detects).  Otherwise the
        detector output passes through the injector's noise /
        fabrication / drift perturbations.  Without an injector, or
        with no matching fault, this is exactly
        :meth:`_run_algorithm`.
        """
        injector = self._injector()
        if injector is None:
            return observation, self._run_algorithm(observation, algorithm)
        now = self._sim_now()
        if (
            injector.stuck_active(self.node_id, now)
            and self._stuck_cache is not None
        ):
            frozen, cached = self._stuck_cache
            self._charge_processing(algorithm)
            return frozen, [
                replace(det, algorithm=algorithm) for det in cached
            ]
        detections = self._run_algorithm(observation, algorithm)
        self._stuck_cache = (observation, list(detections))
        return observation, injector.perturb_detections(
            self.node_id, now, detections, self.thresholds.get(algorithm)
        )

    @property
    def is_operational(self) -> bool:
        return self.alive and not self.battery.is_depleted

    # ------------------------------------------------------------------
    # Fault hooks (driven by the FaultInjector)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power loss: stop processing; the radio goes silent."""
        self.alive = False

    def reboot(self) -> None:
        """Come back up and announce ourselves to the controller."""
        self.alive = True
        if self.simulator is not None and self.is_operational:
            self.report_energy()
            if self._heartbeat_interval is not None:
                self._emit_heartbeat()

    def send(self, message: Message) -> None:
        """Transmit unless crashed or depleted (the radio has no power)."""
        if not self.is_operational:
            self.suppressed_sends += 1
            return
        super().send(message)

    def _send(self, message: Message) -> None:
        """Protocol send: reliable when a transport is configured."""
        if self.transport is not None:
            self.transport.send(message)
        else:
            self.send(message)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def start(self, features: np.ndarray | None = None) -> None:
        """Startup: upload features (optional) and the energy report."""
        if features is not None:
            self._send(
                FeatureUpload(
                    sender=self.node_id,
                    recipient=self.controller_id,
                    features=features,
                )
            )
        self.report_energy()

    def report_energy(self) -> None:
        self._send(
            EnergyReport(
                sender=self.node_id,
                recipient=self.controller_id,
                residual_joules=self.battery.residual,
            )
        )

    # ------------------------------------------------------------------
    # Heartbeats and autonomous operation
    # ------------------------------------------------------------------
    def start_heartbeats(
        self, interval_s: float, until: float | None = None
    ) -> None:
        """Beacon liveness every ``interval_s`` simulated seconds.

        Pass ``until`` (absolute simulated time) to bound the schedule
        — without it the simulator's queue never drains on ``run()``.
        Beacons are fire-and-forget: a missed heartbeat is exactly the
        signal the controller's liveness monitor consumes.
        """
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        self._heartbeat_interval = interval_s
        self._heartbeat_until = until
        self._heartbeat_tick()

    def _emit_heartbeat(self) -> None:
        self.send(
            Heartbeat(
                sender=self.node_id,
                recipient=self.controller_id,
                residual_joules=self.battery.residual,
            )
        )

    def _heartbeat_tick(self) -> None:
        sim = self.simulator
        if sim is None or self._heartbeat_interval is None:
            return
        if (
            self._heartbeat_until is not None
            and sim.now > self._heartbeat_until
        ):
            return
        # self.send is a no-op while crashed/depleted; the schedule
        # keeps ticking so a rebooted node resumes beaconing.  A skewed
        # local clock stretches (or shrinks) the interval — late
        # beacons are exactly how the controller notices the skew.
        self._emit_heartbeat()
        sim.schedule(
            self._heartbeat_interval * self._interval_scale(),
            self._heartbeat_tick,
        )

    def start_operation(
        self, interval_s: float, until: float | None = None
    ) -> None:
        """Process one frame every ``interval_s`` (the paper's cadence).

        Each tick runs :meth:`process_next_frame`, which is a no-op
        until the controller assigns an algorithm, and after a crash
        or battery exhaustion.
        """
        if interval_s <= 0:
            raise ValueError("operation interval must be positive")
        self._operation_until = until
        self._operation_tick(interval_s)

    def _operation_tick(self, interval_s: float) -> None:
        sim = self.simulator
        if sim is None:
            return
        if (
            self._operation_until is not None
            and sim.now > self._operation_until
        ):
            return
        self.process_next_frame()
        sim.schedule(
            interval_s * self._interval_scale(),
            lambda: self._operation_tick(interval_s),
        )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if not self.alive:
            return  # crashed hardware hears nothing
        if message.corrupted:
            # Checksum failure: discard without acking, so the sender
            # retransmits exactly as if the packet had been lost.
            self.corrupted_received += 1
            return
        if isinstance(message, Ack):
            if self.transport is not None:
                self.transport.handle_ack(message)
            return
        if self.transport is not None and not self.transport.accept(message):
            return  # duplicate of an already-processed message
        if isinstance(message, AssessmentRequest):
            self._handle_assessment(message)
        elif isinstance(message, AlgorithmAssignment):
            self.active_algorithm = message.algorithm
            self.standby = message.algorithm is None
        else:
            raise TypeError(
                f"camera {self.node_id!r} cannot handle {message.kind}"
            )

    def _handle_assessment(self, request: AssessmentRequest) -> None:
        for _ in range(request.num_frames):
            if self.cursor >= len(self.observations):
                break
            if self.battery.is_depleted:
                break
            observation = self.observations[self.cursor]
            self.cursor += 1
            self.frames_processed += 1
            for algorithm in request.algorithms:
                sensed, detections = self._sense(observation, algorithm)
                self._send(
                    DetectionMetadata(
                        sender=self.node_id,
                        recipient=self.controller_id,
                        frame_index=sensed.frame_index,
                        algorithm=algorithm,
                        detections=detections,
                    )
                )

    def process_next_frame(self) -> bool:
        """Operational tick: run the assigned algorithm on one frame.

        Returns False when the stream is exhausted, the node is idle,
        crashed, or its battery is depleted.
        """
        if not self.is_operational:
            return False
        if self.active_algorithm is None:
            # A camera explicitly told to stand by keeps pace with the
            # live stream (the sensor keeps streaming; it just skips
            # detection), so a later (re)activation starts at the
            # *current* frame instead of replaying everything it
            # ignored while idle.  Before the first assignment the
            # cursor stays put — those frames belong to assessment.
            if self.standby and self.cursor < len(self.observations):
                self.cursor += 1
            return False
        if self.cursor >= len(self.observations):
            return False
        observation = self.observations[self.cursor]
        self.cursor += 1
        self.frames_processed += 1
        sensed, detections = self._sense(observation, self.active_algorithm)
        self._send(
            DetectionMetadata(
                sender=self.node_id,
                recipient=self.controller_id,
                frame_index=sensed.frame_index,
                algorithm=self.active_algorithm,
                detections=detections,
            )
        )
        return True


@dataclass
class _AssessmentCollector:
    """Accumulates metadata messages into an AssessmentData."""

    expected_frames: int
    by_frame: dict[int, dict[str, dict[str, list[Detection]]]] = field(
        default_factory=dict
    )

    def add(self, message: DetectionMetadata) -> None:
        frame = self.by_frame.setdefault(message.frame_index, {})
        camera = frame.setdefault(message.sender, {})
        camera[message.algorithm] = list(message.detections)

    def to_assessment(self) -> AssessmentData:
        ordered = [self.by_frame[k] for k in sorted(self.by_frame)]
        return AssessmentData(frames=ordered)


class ControllerNode(Node):
    """The central controller as a network node.

    With ``reliable=True`` plus :meth:`enable_liveness` the controller
    tolerates lossy links and dying cameras: assessment rounds finish
    on partial data (give-ups and timeouts release pending cameras),
    heartbeat silence marks cameras dead, and every liveness change
    triggers a re-selection over the surviving fleet.
    """

    def __init__(
        self,
        node_id: str,
        controller: EECSController,
        assessment_frames: int = 4,
        budget: float | None = None,
        reliable: bool = False,
        fault_log: FaultLog | None = None,
        telemetry: "Telemetry | None" = None,
        resilience: "ResilienceCoordinator | None" = None,
    ) -> None:
        super().__init__(node_id)
        self.controller = controller
        self.assessment_frames = assessment_frames
        self.budget = budget
        self.telemetry = telemetry
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.resilience = resilience
        if resilience is not None:
            if resilience.fault_log is None:
                resilience.fault_log = self.fault_log
            for camera_id in controller.camera_ids:
                resilience.register(camera_id)
        self.transport = (
            ReliableTransport(
                self,
                on_give_up=self._on_give_up,
                telemetry=telemetry,
                fault_log=self.fault_log,
                breaker_for=(
                    resilience.breaker if resilience is not None else None
                ),
            )
            if reliable
            else None
        )
        self.corrupted_received = 0
        self._round_span = None
        self._phase_span = None
        self._round_index = 0
        self.energy_reports: dict[str, float] = {}
        self.last_heartbeat: dict[str, float] = {}
        self.operational_metadata: list[DetectionMetadata] = []
        self.decisions = []
        self.last_assessment: AssessmentData | None = None
        self._collector: _AssessmentCollector | None = None
        self._pending_cameras: set[str] = set()
        self._pending_algorithms: dict[str, int] = {}
        self._assessment_deadline: float | None = None
        self._liveness_interval: float | None = None
        self._liveness_misses = 3
        self._liveness_until: float | None = None

    def _send(self, message: Message) -> None:
        if self.transport is not None:
            self.transport.send(message)
        else:
            self.send(message)

    # ------------------------------------------------------------------
    # Telemetry span lifecycle (run → round → phase)
    # ------------------------------------------------------------------
    def _sim_now(self) -> float:
        return self.simulator.now if self.simulator is not None else 0.0

    def _enter_phase(self, name: str) -> None:
        """Close the current phase span and open the next one."""
        if self.telemetry is None:
            return
        tracer = self.telemetry.tracer
        if self._phase_span is not None:
            tracer.end(self._phase_span)
        self._phase_span = tracer.begin(name, sim_time_s=self._sim_now())

    def close_telemetry(self) -> None:
        """End any open round/phase spans (end-of-run cleanup)."""
        if self.telemetry is None:
            return
        tracer = self.telemetry.tracer
        if self._phase_span is not None:
            tracer.end(self._phase_span)
            self._phase_span = None
        if self._round_span is not None:
            tracer.end(self._round_span)
            self._round_span = None

    def receive(self, message: Message) -> None:
        if message.corrupted:
            # Checksum failure: discard without acking (the sender
            # retransmits as if lost) — but the garbled payload itself
            # is a health signal about the sending camera.
            self.corrupted_received += 1
            self.fault_log.fault(
                self._sim_now(),
                "message_corrupted",
                message.sender,
                message.kind,
            )
            if self.resilience is not None:
                self.resilience.monitor.observe_corruption(message.sender)
            return
        if isinstance(message, Ack):
            if self.transport is not None:
                self.transport.handle_ack(message)
            return
        if isinstance(message, Heartbeat):
            self._handle_heartbeat(message)
            return
        if self.transport is not None and not self.transport.accept(message):
            return  # duplicate of an already-processed message
        if isinstance(message, FeatureUpload):
            if self.controller.comparator is not None:
                self.controller.receive_features(
                    message.sender, message.features
                )
        elif isinstance(message, EnergyReport):
            self.energy_reports[message.sender] = message.residual_joules
        elif isinstance(message, DetectionMetadata):
            self._handle_metadata(message)
        else:
            raise TypeError(
                f"controller cannot handle {message.kind}"
            )

    # ------------------------------------------------------------------
    # Liveness: heartbeats, dead declarations, re-selection
    # ------------------------------------------------------------------
    def enable_liveness(
        self,
        heartbeat_interval_s: float,
        miss_threshold: int = 3,
        until: float | None = None,
    ) -> None:
        """Watch camera heartbeats and react to silence.

        A camera unheard for ``miss_threshold`` heartbeat intervals is
        marked dead and the current selection is re-run over the
        survivors.  ``until`` bounds the monitoring schedule in
        absolute simulated time.
        """
        if self.simulator is None:
            raise RuntimeError("attach the controller to a simulator first")
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self._liveness_interval = heartbeat_interval_s
        self._liveness_misses = miss_threshold
        self._liveness_until = until
        now = self.simulator.now
        for camera_id in self.controller.camera_ids:
            self.last_heartbeat.setdefault(camera_id, now)
        self.simulator.schedule(heartbeat_interval_s, self._liveness_check)

    def _handle_heartbeat(self, message: Heartbeat) -> None:
        if self.simulator is not None:
            self.last_heartbeat[message.sender] = self.simulator.now
        self.energy_reports[message.sender] = message.residual_joules
        if self.resilience is not None:
            self.resilience.monitor.observe_heartbeat(
                message.sender, self._sim_now(), message.residual_joules
            )
        if message.sender in self.controller.camera_ids:
            state = self.controller.camera(message.sender)
            if not state.alive:
                self.controller.mark_camera_alive(message.sender)
                self.fault_log.recovery(
                    self.simulator.now if self.simulator else 0.0,
                    "camera_marked_alive",
                    message.sender,
                )
                self._reselect(f"camera {message.sender} returned")

    def _liveness_check(self) -> None:
        sim = self.simulator
        if sim is None or self._liveness_interval is None:
            return
        deadline = self._liveness_misses * self._liveness_interval
        newly_dead = []
        for camera_id in self.controller.camera_ids:
            state = self.controller.camera(camera_id)
            if not state.alive:
                continue
            silent_for = sim.now - self.last_heartbeat.get(camera_id, 0.0)
            if silent_for > deadline:
                self.controller.mark_camera_dead(camera_id)
                newly_dead.append(camera_id)
                self.fault_log.fault(
                    sim.now,
                    "camera_marked_dead",
                    camera_id,
                    f"no heartbeat for {silent_for:.2f} s",
                )
            elif (
                self.resilience is not None
                and silent_for > self._liveness_interval
            ):
                # Late but not yet dead: a *weak* health signal (clock
                # skew and transient loss both look like this).
                self.resilience.monitor.observe_miss(camera_id)
        if newly_dead:
            for camera_id in newly_dead:
                self._release_pending(camera_id)
            self._reselect(f"cameras died: {', '.join(newly_dead)}")
        if self.resilience is not None:
            self._apply_resilience(sim.now)
        if self._liveness_until is None or sim.now <= self._liveness_until:
            sim.schedule(self._liveness_interval, self._liveness_check)

    # ------------------------------------------------------------------
    # Resilience: degradation ladder, quarantine probes
    # ------------------------------------------------------------------
    def _apply_resilience(self, now: float) -> None:
        """Advance the health ladder and act on its transitions."""
        coordinator = self.resilience
        transitions = coordinator.evaluate(now)
        for transition in transitions:
            self.controller.set_camera_mode(
                transition.camera_id, transition.new_mode
            )
            if transition.new_mode == CAMERA_QUARANTINED:
                # Stop waiting on a quarantined camera's assessment
                # contribution — its data is suspect anyway.
                self._release_pending(transition.camera_id)
        for camera_id in coordinator.due_probes(now):
            self._send_probe(camera_id, now)
        if transitions:
            moved = ", ".join(
                f"{t.camera_id}->{t.new_mode}" for t in transitions
            )
            self._reselect(f"health transitions: {moved}")

    def _cheapest_algorithm(self, camera_id: str) -> str | None:
        state = self.controller.camera(camera_id)
        if state.matched_item is None:
            return None
        item = self.controller.library.get(state.matched_item)
        cheapest = min(
            item.profiles.values(),
            key=lambda p: (p.energy_per_frame, p.algorithm),
        )
        return cheapest.algorithm

    def _send_probe(self, camera_id: str, now: float) -> None:
        """Cheap re-admission probe: one frame, cheapest algorithm."""
        state = self.controller.camera(camera_id)
        if not state.alive:
            return  # liveness owns dead cameras
        algorithm = self._cheapest_algorithm(camera_id)
        if algorithm is None:
            return
        self.fault_log.recovery(
            now, "quarantine_probe", camera_id, algorithm
        )
        self._send(
            AssessmentRequest(
                sender=self.node_id,
                recipient=camera_id,
                num_frames=self.resilience.config.probe_frames,
                algorithms=[algorithm],
            )
        )

    def _reselect(self, reason: str) -> None:
        """Re-run selection over surviving cameras on the last data."""
        if self.last_assessment is None:
            return
        now = self.simulator.now if self.simulator else 0.0
        try:
            decision = self._decide(self.last_assessment)
        except RuntimeError as exc:
            self.fault_log.fault(
                now, "reselect_failed", self.node_id, str(exc)
            )
            return
        self.decisions.append(decision)
        self.fault_log.recovery(
            now, "reselected", self.node_id,
            f"{reason}; new assignment {decision.assignment}",
        )
        self._push_assignments(decision)

    # ------------------------------------------------------------------
    # Reliability bookkeeping
    # ------------------------------------------------------------------
    def _on_give_up(self, message: Message) -> None:
        """A message exhausted its retries; release anything waiting."""
        now = self.simulator.now if self.simulator else 0.0
        self.fault_log.fault(
            now, "delivery_gave_up", message.recipient, message.kind
        )
        if self.resilience is not None:
            self.resilience.monitor.observe_give_up(message.recipient)
        if isinstance(message, AssessmentRequest):
            self._release_pending(message.recipient)

    def _release_pending(self, camera_id: str) -> None:
        """Stop waiting on a camera's assessment contribution."""
        if self._collector is None:
            return
        self._pending_cameras.discard(camera_id)
        self._pending_algorithms.pop(camera_id, None)
        if not self._pending_cameras:
            self._finish_assessment()

    # ------------------------------------------------------------------
    # Assessment round orchestration
    # ------------------------------------------------------------------
    def start_assessment(
        self,
        camera_algorithms: dict[str, list[str]],
        timeout_s: float | None = None,
    ) -> None:
        """Ask every camera to run its affordable algorithms.

        ``timeout_s`` bounds the round: if metadata is still missing
        after that many simulated seconds (lost requests, cameras dying
        mid-assessment), the round closes on whatever arrived instead
        of stalling forever.
        """
        if self.telemetry is not None:
            self.close_telemetry()
            self._round_span = self.telemetry.tracer.begin(
                "round",
                index=self._round_index,
                sim_time_s=self._sim_now(),
            )
            self._round_index += 1
            self._enter_phase("assessment")
            self.telemetry.registry.counter(
                "run_rounds_total",
                "Assessment/selection rounds executed.",
            ).inc()
        self._collector = _AssessmentCollector(
            expected_frames=self.assessment_frames
        )
        self._pending_cameras = set(camera_algorithms)
        self._pending_algorithms = {
            camera: self.assessment_frames * len(algorithms)
            for camera, algorithms in camera_algorithms.items()
        }
        if timeout_s is not None:
            if self.simulator is None:
                raise RuntimeError(
                    "attach the controller to a simulator first"
                )
            deadline = self.simulator.now + timeout_s
            self._assessment_deadline = deadline
            self.simulator.schedule(
                timeout_s, lambda: self._assessment_timeout(deadline)
            )
        for camera_id, algorithms in camera_algorithms.items():
            self._send(
                AssessmentRequest(
                    sender=self.node_id,
                    recipient=camera_id,
                    num_frames=self.assessment_frames,
                    algorithms=algorithms,
                )
            )

    def _assessment_timeout(self, deadline: float) -> None:
        if self._collector is None or self._assessment_deadline != deadline:
            return  # the round already finished (or was restarted)
        waiting = sorted(self._pending_cameras)
        self.fault_log.fault(
            self.simulator.now if self.simulator else 0.0,
            "assessment_timeout",
            self.node_id,
            f"closing round without: {', '.join(waiting)}",
        )
        self._finish_assessment()

    def _handle_metadata(self, message: DetectionMetadata) -> None:
        if self.resilience is not None:
            # Every metadata message — assessment, operational, or a
            # quarantine probe reply — feeds the health baselines.
            self.resilience.monitor.observe_detections(
                message.sender,
                message.algorithm,
                message.frame_index,
                [det.score for det in message.detections],
            )
        if (
            self._collector is not None
            and message.sender in self._pending_cameras
        ):
            self.controller.calibrate_probabilities(
                message.sender, message.detections
            )
            self._collector.add(message)
            self._pending_algorithms[message.sender] -= 1
            if self._pending_algorithms[message.sender] <= 0:
                self._pending_cameras.discard(message.sender)
            if not self._pending_cameras:
                self._finish_assessment()
        else:
            if (
                self.resilience is not None
                and self.resilience.mode(message.sender)
                == CAMERA_QUARANTINED
            ):
                # Quarantined data informs health but never accuracy:
                # probe replies stop here.
                return
            self.operational_metadata.append(message)

    def _decide(self, assessment: AssessmentData):
        overrides = (
            {c: self.budget for c in self.controller.camera_ids}
            if self.budget is not None
            else None
        )
        return self.controller.select(
            assessment, budget_overrides=overrides
        )

    def _finish_assessment(self) -> None:
        self._enter_phase("selection")
        try:
            assessment = self._collector.to_assessment()
            self._collector = None
            self._assessment_deadline = None
            if not assessment.frames:
                self.fault_log.fault(
                    self.simulator.now if self.simulator else 0.0,
                    "assessment_empty",
                    self.node_id,
                    "no metadata arrived; keeping the previous selection",
                )
                return
            self.last_assessment = assessment
            try:
                decision = self._decide(assessment)
            except RuntimeError as exc:
                self.fault_log.fault(
                    self.simulator.now if self.simulator else 0.0,
                    "selection_failed",
                    self.node_id,
                    str(exc),
                )
                return
            self.decisions.append(decision)
            self._push_assignments(decision)
        finally:
            # Whatever happened to selection, the fleet moves on to (or
            # keeps) operating — the span tree should show that phase.
            self._enter_phase("operation")

    def _push_assignments(self, decision) -> None:
        for camera_id in self.controller.alive_camera_ids:
            algorithm = decision.assignment.get(camera_id)
            threshold = float("nan")
            if algorithm is not None:
                state = self.controller.camera(camera_id)
                item = self.controller.library.get(state.matched_item)
                threshold = item.profile(algorithm).threshold
            self._send(
                AlgorithmAssignment(
                    sender=self.node_id,
                    recipient=camera_id,
                    algorithm=algorithm,
                    threshold=threshold,
                )
            )
