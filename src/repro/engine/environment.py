"""The fault-injected network: where a networked spec's fleet runs.

A :class:`~repro.engine.spec.DeploymentSpec` runs in one of two
environments.  With ``network=False`` the engine's own loop
(:meth:`~repro.engine.core.DeploymentEngine.run`) is the in-process
frame feed: every frame arrives, every message is delivered, the only
costs are the modelled processing and communication energy.  With
``network=True`` this module's :class:`FaultInjectedEnvironment` runs
the discrete-event network — reliable transport, heartbeats, liveness
tracking, with a :class:`~repro.faults.plan.FaultPlan` injecting
packet loss, camera crashes and data-plane faults — and produces a
:class:`NetworkOutcome` measured on what the controller actually
received.

The environment reads the shared engine (library, matcher, detectors,
energy model) and provisions its own controller and batteries through
:meth:`~repro.engine.core.DeploymentEngine.build_controller`, so a
trained engine stays pristine across deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.checkpoint.codec import EventLogDigest
from repro.checkpoint.hooks import RunCheckpointer
from repro.checkpoint.store import CheckpointError
from repro.datasets.groundtruth import persons_in_any_view
from repro.engine.core import (
    DeploymentEngine,
    affordable_algorithms,
    close_round,
    count_true_detections,
)
from repro.faults.events import FaultEvent, RecoveryEvent
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CalibrationDrift,
    ClockSkew,
    Crash,
    FaultPlan,
    MessageCorruption,
    SensorFault,
)
from repro.network.node import CameraSensorNode, ControllerNode
from repro.network.simulator import EventSimulator
from repro.resilience.ladder import build_coordinator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.spec import DeploymentSpec
    from repro.telemetry.core import Telemetry


#: Protocol constants of the networked deployment: frames per
#: accuracy assessment, camera liveness beacon interval, heartbeats
#: missed before a camera is declared dead, and the deadline for
#: closing an assessment round on partial data.
ASSESSMENT_FRAMES = 2
HEARTBEAT_S = 2.0
MISS_THRESHOLD = 3
ASSESSMENT_TIMEOUT_S = 5.0


def fault_plan_for(
    spec: "DeploymentSpec", camera_ids: list[str], horizon_s: float
) -> FaultPlan:
    """The plan a networked spec's fault fields describe.

    Uniform loss on every link; ``crash_count`` cameras (in camera-id
    order) crash one third into the horizon; the data-plane faults hit
    the first ``fault_camera_count`` cameras from one third into the
    horizon (after the first assignment is in force) to its end.
    """
    onset = horizon_s / 3.0
    plan = FaultPlan.uniform_loss(spec.loss_rate, seed=spec.seed)
    plan = plan.with_crashes(
        *(
            Crash(camera_id, at_s=onset, reboot_s=spec.reboot_s)
            for camera_id in camera_ids[: spec.crash_count]
        )
    )
    window = {"start_s": onset, "end_s": horizon_s}
    data_faults = []
    for camera_id in camera_ids[: spec.fault_camera_count]:
        if spec.sensor_noise or spec.sensor_fp_rate or spec.stuck:
            data_faults.append(
                SensorFault(
                    node_id=camera_id,
                    noise=spec.sensor_noise,
                    false_positive_rate=spec.sensor_fp_rate,
                    stuck=spec.stuck,
                    **window,
                )
            )
        if spec.score_drift_per_s:
            data_faults.append(
                CalibrationDrift(
                    node_id=camera_id,
                    score_drift_per_s=spec.score_drift_per_s,
                    **window,
                )
            )
        if spec.clock_skew:
            data_faults.append(
                ClockSkew(node_id=camera_id, skew=spec.clock_skew, **window)
            )
        if spec.corruption_rate:
            data_faults.append(
                MessageCorruption(
                    node_a=camera_id, rate=spec.corruption_rate, **window
                )
            )
    return plan.with_data_faults(*data_faults)


@dataclass
class NetworkOutcome:
    """What a networked deployment measured."""

    humans_detected: int
    humans_present: int
    delivered_messages: int
    dropped_messages: int
    retransmissions: int
    gave_up: int
    duplicates_dropped: int
    suppressed_sends: int
    battery_by_camera: dict[str, float]
    num_decisions: int
    final_assignment: dict[str, str]
    fault_events: list[FaultEvent] = field(default_factory=list)
    recovery_events: list[RecoveryEvent] = field(default_factory=list)
    simulated_s: float = 0.0
    corrupted_received: int = 0
    breaker_blocked: int = 0
    camera_modes: dict[str, str] = field(default_factory=dict)

    @property
    def detection_rate(self) -> float:
        """Fraction of present humans the controller confirmed."""
        if self.humans_present == 0:
            return 0.0
        return self.humans_detected / self.humans_present

    @property
    def total_radio_joules(self) -> float:
        return sum(self.battery_by_camera.values())

    def fault_kinds(self) -> list[str]:
        return [e.kind for e in self.fault_events]


#: Progress counters a chaos checkpoint records and a seeded replay
#: must reach at least (they only ever grow).
_MONOTONE_COUNTERS = (
    "delivered_messages",
    "dropped_messages",
    "num_decisions",
    "operational_metadata",
)

#: Every key of a chaos checkpoint's state: the replay markers
#: :func:`_verify_chaos_replay` reads, plus the battery totals.
_CHAOS_STATE_KEYS = frozenset(
    {
        "sim_now",
        "injector",
        "fault_log_sha256",
        "recovery_log_sha256",
        "battery_by_camera",
        *_MONOTONE_COUNTERS,
    }
)


def _verify_chaos_replay(
    recorded: dict, sim, injector, counters: dict[str, int]
) -> None:
    """Prove a replayed chaos run retraced the checkpointed trajectory.

    Seeded replay is only a valid resume if it reproduces what the
    crashed process already observed: the first ``faults_logged`` /
    ``recoveries_logged`` events of the replayed logs must hash to the
    recorded digests, and the replay must have advanced at least as
    far as the checkpoint on every counter.
    """
    missing = sorted(_CHAOS_STATE_KEYS - set(recorded))
    if missing:
        raise CheckpointError(
            f"chaos checkpoint lacks replay markers: {', '.join(missing)}"
        )
    marker = recorded["injector"]
    replayed = injector.position()
    if not isinstance(marker, dict) or not set(marker) >= set(replayed):
        raise CheckpointError(
            f"chaos checkpoint has a malformed injector marker: {marker!r}"
        )
    for label, events, count_key, digest_key in (
        ("fault", injector.log.faults, "faults_logged", "fault_log_sha256"),
        (
            "recovery",
            injector.log.recoveries,
            "recoveries_logged",
            "recovery_log_sha256",
        ),
    ):
        count = marker[count_key]
        if len(events) < count:
            raise CheckpointError(
                f"replayed {label} log has {len(events)} events but the "
                f"checkpoint recorded {count}: the resumed run is not "
                f"the checkpointed trajectory"
            )
        if EventLogDigest(events[:count]).hexdigest() != recorded[digest_key]:
            raise CheckpointError(
                f"replayed {label} log diverges from the checkpoint: its "
                f"first {count} events do not hash to the recorded digest"
            )
    if recorded["sim_now"] > sim.now + 1e-9:
        raise CheckpointError(
            f"replayed run ended at t={sim.now} s but the checkpoint "
            f"was taken at t={recorded['sim_now']} s: the resumed run "
            f"did not reach the checkpointed progress"
        )
    progress = {**marker, **{k: recorded[k] for k in _MONOTONE_COUNTERS}}
    reached = {**replayed, **counters}
    diverged = {
        key: (value, reached.get(key, 0))
        for key, value in progress.items()
        if reached.get(key, 0) < value
    }
    if diverged:
        raise CheckpointError(
            "replayed run fell short of the checkpoint's progress: "
            f"{diverged} (recorded, replayed)"
        )


@dataclass
class FaultInjectedEnvironment:
    """The discrete-event network with injected faults.

    Deploys the engine's trained fleet over the ground-truth frames of
    ``spec``'s window, one per ``seconds_per_frame`` tick, on
    :class:`~repro.network.simulator.EventSimulator` — lossy links
    force retransmissions (paid in Joules), crashed cameras go silent
    until the controller declares them dead and re-selects over the
    survivors — and measures accuracy on the metadata the controller
    actually received.

    The run records into ``telemetry`` (default: the engine's).  With
    a :class:`~repro.telemetry.core.Telemetry` attached, the run
    emits the full observability surface — network/energy/controller
    metrics, a run → round → phase → camera-op span tree, and
    structured events mirroring the fault log — without perturbing any
    rng stream: the faulty trajectory is bit-identical either way.

    With a :class:`~repro.checkpoint.hooks.RunCheckpointer` attached,
    the run snapshots a *progress marker* (simulated time, message,
    decision and injector counters, a SHA-256 digest of each of the
    fault and recovery logs, battery totals) every ``K`` frame ticks.
    The event queue itself — closures over live node state — is not
    serialisable, so a resumed chaos run continues by **deterministic
    replay**: every stream is seeded, so re-executing from ``t = 0``
    retraces the checkpointed trajectory exactly, and the environment
    verifies that by checking that the replayed logs' first
    ``faults_logged`` / ``recoveries_logged`` events hash to the
    recorded digests and that every counter got at least as far (a
    mismatch raises :class:`~repro.checkpoint.store.CheckpointError`).
    Checkpoint ticks never draw from any rng and never mutate simulator
    state, so a checkpointed run is bit-identical to an unobserved one.
    """

    spec: "DeploymentSpec"
    telemetry: "Telemetry | None" = None
    checkpointer: RunCheckpointer | None = None

    def execute(self, engine: DeploymentEngine) -> NetworkOutcome:
        spec = self.spec
        telemetry = (
            self.telemetry if self.telemetry is not None else engine.telemetry
        )
        checkpointer = self.checkpointer
        dataset = engine.dataset
        start = dataset.spec.train_end if spec.start is None else spec.start
        end = dataset.spec.total_frames if spec.end is None else spec.end
        records = dataset.frames(start, end, only_ground_truth=True)
        num_frames = len(records)
        # One tick per frame plus start-up slack.
        seconds_per_frame = engine.config.seconds_per_frame
        horizon = seconds_per_frame * (num_frames + 4)
        plan = (
            spec.fault_plan
            if spec.fault_plan is not None
            else fault_plan_for(spec, dataset.camera_ids, horizon)
        )

        sim = EventSimulator(telemetry=telemetry)
        controller = engine.build_controller(
            telemetry=telemetry, now_fn=lambda: sim.now
        )

        injector = FaultInjector(plan)
        if telemetry is not None:
            telemetry.attach_fault_log(injector.log)
        coordinator = build_coordinator(
            spec.resilience,
            dataset.camera_ids,
            fault_log=injector.log,
        )
        controller_node = ControllerNode(
            "controller",
            controller,
            assessment_frames=ASSESSMENT_FRAMES,
            budget=spec.budget,
            reliable=True,
            fault_log=injector.log,
            telemetry=telemetry,
            resilience=coordinator,
        )
        sim.register_node(controller_node)

        cameras: dict[str, CameraSensorNode] = {}
        for camera_id in dataset.camera_ids:
            item = engine.library.get(f"T-{camera_id}")
            node = CameraSensorNode(
                node_id=camera_id,
                controller_id="controller",
                observations=[r.observation(camera_id) for r in records],
                detectors=engine.detectors,
                thresholds={
                    n: p.threshold for n, p in item.profiles.items()
                },
                energy_model=engine.energy_model,
                reliable=True,
                telemetry=telemetry,
                fault_log=injector.log,
            )
            cameras[camera_id] = node
            sim.register_node(node)
            sim.connect(camera_id, "controller")
        injector.attach(sim)

        resume_state = None
        if checkpointer is not None:
            resume_state = checkpointer.begin(
                "chaos",
                {
                    "dataset": dataset.spec.name,
                    "plan": plan.to_dict(),
                    "start": start,
                    "num_frames": num_frames,
                    "assessment_frames": ASSESSMENT_FRAMES,
                    "budget": spec.budget,
                    "seconds_per_frame": seconds_per_frame,
                    "heartbeat_s": HEARTBEAT_S,
                    "miss_threshold": MISS_THRESHOLD,
                    "assessment_timeout_s": ASSESSMENT_TIMEOUT_S,
                    "horizon_s": horizon,
                    "seed": spec.seed,
                },
            )
            if resume_state is not None and telemetry is not None:
                # Chaos resumes by seeded replay from t = 0, which
                # re-emits every tick's flush; truncate the stream so
                # the replay rebuilds it without duplicates.
                telemetry.prepare_resume(0)

        fault_digest = EventLogDigest(injector.log.faults)
        recovery_digest = EventLogDigest(injector.log.recoveries)

        def _counters() -> dict[str, int]:
            return {
                "delivered_messages": sim.delivered_messages,
                "dropped_messages": sim.dropped_messages,
                "num_decisions": len(controller_node.decisions),
                "operational_metadata": len(
                    controller_node.operational_metadata
                ),
            }

        def _progress() -> dict:
            # Replay markers, not resumable state: what a seeded
            # re-execution must reproduce to prove it is the same
            # trajectory (keys: _CHAOS_STATE_KEYS).
            return {
                "sim_now": sim.now,
                "injector": injector.position(),
                "fault_log_sha256": fault_digest.hexdigest(),
                "recovery_log_sha256": recovery_digest.hexdigest(),
                "battery_by_camera": {
                    camera_id: node.battery.consumed
                    for camera_id, node in cameras.items()
                },
                **_counters(),
            }

        run_span = (
            telemetry.tracer.begin(
                "run",
                mode="chaos",
                seed=spec.seed,
                loss_rate=spec.loss_rate,
                crash_count=spec.crash_count,
                frames=num_frames,
            )
            if telemetry is not None
            else None
        )
        try:
            for node in cameras.values():
                node.start()
                node.start_heartbeats(HEARTBEAT_S, until=horizon)
                node.start_operation(seconds_per_frame, until=horizon)
            controller_node.enable_liveness(
                HEARTBEAT_S, miss_threshold=MISS_THRESHOLD, until=horizon
            )

            camera_algorithms = {}
            for camera_id in dataset.camera_ids:
                algorithms = affordable_algorithms(
                    controller, camera_id, spec.budget
                )
                if algorithms:
                    camera_algorithms[camera_id] = sorted(algorithms)
            controller_node.start_assessment(
                camera_algorithms, timeout_s=ASSESSMENT_TIMEOUT_S
            )

            if checkpointer is not None or telemetry is not None:
                total_ticks = max(1, int(horizon / seconds_per_frame))

                for tick in range(total_ticks):
                    # Each frame tick is a round boundary: the same
                    # flush-then-checkpoint sequence as the run loop.
                    sim.schedule(
                        (tick + 1) * seconds_per_frame - sim.now,
                        lambda t=tick: close_round(
                            t, total_ticks, sim.now, telemetry,
                            coordinator, checkpointer, _progress,
                        ),
                    )

            sim.run(until=horizon + seconds_per_frame)
        finally:
            if checkpointer is not None:
                checkpointer.finish()
            if telemetry is not None:
                controller_node.close_telemetry()
                telemetry.tracer.end(run_span, simulated_s=sim.now)

        if resume_state is not None:
            _verify_chaos_replay(resume_state, sim, injector, _counters())

        # Accuracy over the operational window, measured on what the
        # controller actually received: metadata from crashed cameras
        # or lost beyond the retry cap never arrives, and that is the
        # point.
        by_frame: dict[int, list] = {}
        for metadata in controller_node.operational_metadata:
            by_frame.setdefault(metadata.frame_index, []).extend(
                metadata.detections
            )
        detected_total = 0
        present_total = 0
        for idx, record in enumerate(records):
            if idx < ASSESSMENT_FRAMES:
                continue
            present = persons_in_any_view(record.observations)
            present_total += len(present)
            groups = engine.matcher.group(
                by_frame.get(record.frame_index, [])
            )
            detected_total += count_true_detections(groups, present)

        transports = [controller_node.transport] + [
            c.transport for c in cameras.values()
        ]
        return NetworkOutcome(
            humans_detected=detected_total,
            humans_present=present_total,
            delivered_messages=sim.delivered_messages,
            dropped_messages=sim.dropped_messages,
            retransmissions=sum(t.retransmissions for t in transports),
            gave_up=sum(t.gave_up for t in transports),
            duplicates_dropped=sum(t.duplicates_dropped for t in transports),
            suppressed_sends=sum(
                c.suppressed_sends for c in cameras.values()
            ),
            battery_by_camera={
                camera_id: node.battery.consumed
                for camera_id, node in cameras.items()
            },
            num_decisions=len(controller_node.decisions),
            final_assignment=(
                dict(controller_node.decisions[-1].assignment)
                if controller_node.decisions
                else {}
            ),
            fault_events=list(injector.log.faults),
            recovery_events=list(injector.log.recoveries),
            simulated_s=sim.now,
            corrupted_received=controller_node.corrupted_received
            + sum(c.corrupted_received for c in cameras.values()),
            breaker_blocked=sum(
                t.breaker_blocked for t in transports if t is not None
            ),
            camera_modes=(
                dict(coordinator.modes) if coordinator is not None else {}
            ),
        )
