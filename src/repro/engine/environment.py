"""Execution environments: where a deployment engine's fleet runs.

The engine knows the EECS protocol; an :class:`Environment` decides
the conditions under which the trained fleet executes it:

* :class:`IdealEnvironment` — the in-process frame loop: every frame
  arrives, every message is delivered, the only costs are the modelled
  processing and communication energy.  Produces a
  :class:`~repro.engine.core.RunResult`.
* :class:`FaultInjectedEnvironment` — the discrete-event network:
  reliable transport, heartbeats, liveness tracking, with a
  :class:`~repro.faults.plan.FaultPlan` injecting packet loss and
  camera crashes.  Produces a :class:`NetworkOutcome` measured on what
  the controller actually received.

Both environments read the same shared engine (library, matcher,
detectors, energy model) and provision their own controller and
batteries through :meth:`~repro.engine.core.DeploymentEngine.build_controller`,
so a trained engine stays pristine across deployments.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.checkpoint.codec import (
    fault_event_to_dict,
    rng_state_to_dict,
    verify_event_prefix,
)
from repro.checkpoint.hooks import CheckpointConfig, RunCheckpointer
from repro.checkpoint.store import CheckpointError
from repro.datasets.groundtruth import persons_in_any_view
from repro.engine.core import (
    DeploymentEngine,
    RunResult,
    close_round,
    count_true_detections,
)
from repro.faults.events import FaultEvent, RecoveryEvent
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.node import CameraSensorNode, ControllerNode
from repro.network.simulator import EventSimulator
from repro.resilience.ladder import ResilienceConfig, build_coordinator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.policy import CoordinationPolicy
    from repro.telemetry.core import Telemetry


class Environment(ABC):
    """Conditions under which an engine deploys its fleet."""

    @abstractmethod
    def execute(self, engine: DeploymentEngine):
        """Run one deployment of ``engine`` in this environment."""


@dataclass
class IdealEnvironment(Environment):
    """The idealised in-process frame feed (no network, no faults)."""

    policy: "CoordinationPolicy | str" = "full"
    budget: float | None = None
    assignment: dict[str, str] | None = None
    start: int | None = None
    end: int | None = None

    def execute(self, engine: DeploymentEngine) -> RunResult:
        return engine.run(
            self.policy,
            budget=self.budget,
            assignment=self.assignment,
            start=self.start,
            end=self.end,
        )


@dataclass(frozen=True)
class NetworkConditions:
    """The resolved parameters of one fault-injected deployment.

    A concrete description — the fault plan is already built — so the
    environment depends only on the engine, not on experiment-level
    spec types.

    Attributes:
        plan: The fault plan to inject (loss model plus crashes).
        start: First dataset frame of the deployment window.
        num_frames: Ground-truth frames in the window; the first
            ``assessment_frames`` feed the assessment round.
        assessment_frames: Frames per accuracy assessment.
        budget: Per-frame energy budget applied to every camera.
        seconds_per_frame: Operational cadence.
        heartbeat_s: Camera liveness beacon interval.
        miss_threshold: Heartbeats missed before a camera is declared
            dead.
        assessment_timeout_s: Deadline for closing an assessment round
            on partial data.
        horizon_s: Simulated duration of the deployment.
        seed / loss_rate / crash_count: Provenance, recorded on the
            run span for traceability.
        resilience: Graceful-degradation configuration; ``None`` (or
            ``enabled=False``) deploys without the resilience layer —
            the bit-identical legacy behavior.
    """

    plan: FaultPlan
    start: int
    num_frames: int
    assessment_frames: int
    budget: float
    seconds_per_frame: float
    heartbeat_s: float
    miss_threshold: int
    assessment_timeout_s: float
    horizon_s: float
    seed: int = 0
    loss_rate: float = 0.0
    crash_count: int = 0
    resilience: ResilienceConfig | None = None


@dataclass
class NetworkOutcome:
    """What a networked deployment measured.

    Experiment-level wrappers (``ChaosResult``) combine this with the
    spec that produced it.
    """

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


def _verify_chaos_replay(recorded: dict, sim, injector) -> None:
    """Prove a replayed chaos run retraced the checkpointed trajectory.

    Seeded replay is only a valid resume if it reproduces what the
    crashed process already observed: the recorded fault and recovery
    events must be an exact prefix of the replayed logs, and the
    replay must have advanced at least as far as the checkpoint.
    """
    try:
        verify_event_prefix(
            recorded.get("fault_events", []), injector.log.faults, "fault"
        )
        verify_event_prefix(
            recorded.get("recovery_events", []),
            injector.log.recoveries,
            "recovery",
        )
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    if recorded["sim_now"] > sim.now + 1e-9:
        raise CheckpointError(
            f"replayed run ended at t={sim.now} s but the checkpoint "
            f"was taken at t={recorded['sim_now']} s: the resumed run "
            f"did not reach the checkpointed progress"
        )
    marker = recorded.get("injector", {})
    replayed = injector.position()
    diverged = {
        key: (value, replayed[key])
        for key, value in marker.items()
        if replayed.get(key, 0) < value
    }
    if diverged:
        raise CheckpointError(
            "replayed fault-injector position fell short of the "
            f"checkpoint: {diverged} (recorded, replayed)"
        )


@dataclass
class FaultInjectedEnvironment(Environment):
    """The discrete-event network with injected faults.

    Deploys the engine's trained fleet over
    :class:`~repro.network.simulator.EventSimulator` — lossy links
    force retransmissions (paid in Joules), crashed cameras go silent
    until the controller declares them dead and re-selects over the
    survivors — and measures accuracy on the metadata the controller
    actually received.

    With a :class:`~repro.telemetry.core.Telemetry` attached, the run
    emits the full observability surface — network/energy/controller
    metrics, a run → round → phase → camera-op span tree, and
    structured events mirroring the fault log — without perturbing any
    rng stream: the faulty trajectory is bit-identical either way.

    With a :class:`~repro.checkpoint.hooks.CheckpointConfig` attached,
    the run snapshots a *progress marker* (simulated time, message and
    fault-log counters, injector rng state, battery totals) every ``K``
    frame ticks.  The event queue itself — closures over live node
    state — is not serialisable, so a resumed chaos run continues by
    **deterministic replay**: every stream is seeded, so re-executing
    from ``t = 0`` retraces the checkpointed trajectory exactly, and
    the environment verifies that by checking the recorded fault and
    recovery logs are a prefix of the replayed ones (a mismatch raises
    :class:`~repro.checkpoint.store.CheckpointError`).  Checkpoint
    ticks never draw from any rng and never mutate simulator state, so
    a checkpointed run is bit-identical to an unobserved one.
    """

    conditions: NetworkConditions
    telemetry: "Telemetry | None" = None
    checkpoint: CheckpointConfig | None = None

    def execute(self, engine: DeploymentEngine) -> NetworkOutcome:
        conditions = self.conditions
        telemetry = self.telemetry
        dataset = engine.dataset
        end = conditions.start + conditions.num_frames * dataset.spec.gt_every
        records = dataset.frames(
            conditions.start, end, only_ground_truth=True
        )
        records = records[: conditions.num_frames]

        sim = EventSimulator(telemetry=telemetry)
        controller = engine.build_controller(
            telemetry=telemetry, now_fn=lambda: sim.now
        )

        injector = FaultInjector(conditions.plan)
        if telemetry is not None:
            telemetry.attach_fault_log(injector.log)
        coordinator = build_coordinator(
            conditions.resilience,
            dataset.camera_ids,
            fault_log=injector.log,
        )
        controller_node = ControllerNode(
            "controller",
            controller,
            assessment_frames=conditions.assessment_frames,
            budget=conditions.budget,
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

        checkpointer = (
            RunCheckpointer(self.checkpoint)
            if self.checkpoint is not None
            else None
        )
        resume_state = None
        if checkpointer is not None:
            resume_state = checkpointer.begin(
                "chaos",
                {
                    "dataset": dataset.spec.name,
                    "plan": conditions.plan.to_dict(),
                    "start": conditions.start,
                    "num_frames": conditions.num_frames,
                    "assessment_frames": conditions.assessment_frames,
                    "budget": conditions.budget,
                    "seconds_per_frame": conditions.seconds_per_frame,
                    "heartbeat_s": conditions.heartbeat_s,
                    "miss_threshold": conditions.miss_threshold,
                    "assessment_timeout_s": conditions.assessment_timeout_s,
                    "horizon_s": conditions.horizon_s,
                    "seed": conditions.seed,
                },
            )
            if resume_state is not None and telemetry is not None:
                # Chaos resumes by seeded replay from t = 0, which
                # re-emits every tick's flush; truncate the stream so
                # the replay rebuilds it without duplicates.
                telemetry.prepare_resume(0)

        def _progress() -> dict:
            # Replay markers, not resumable state: what a seeded
            # re-execution must reproduce to prove it is the same
            # trajectory.  The metrics snapshot rides along for
            # operators; replay regenerates telemetry from scratch, so
            # it is never merged back.
            state = {
                "sim_now": sim.now,
                "delivered_messages": sim.delivered_messages,
                "dropped_messages": sim.dropped_messages,
                "injector": injector.position(),
                "injector_rng": rng_state_to_dict(injector.rng),
                "fault_events": [
                    fault_event_to_dict(e) for e in injector.log.faults
                ],
                "recovery_events": [
                    fault_event_to_dict(e) for e in injector.log.recoveries
                ],
                "battery_by_camera": {
                    camera_id: node.battery.consumed
                    for camera_id, node in cameras.items()
                },
                "num_decisions": len(controller_node.decisions),
                "operational_metadata": len(
                    controller_node.operational_metadata
                ),
            }
            if coordinator is not None:
                # Informational (resume is by seeded replay, which
                # rebuilds this state; ladder transitions join the
                # fault-event prefix verification above).
                state["resilience"] = coordinator.snapshot()
            if telemetry is not None:
                state["metrics"] = telemetry.registry.snapshot()
            return state

        run_span = (
            telemetry.tracer.begin(
                "run",
                mode="chaos",
                seed=conditions.seed,
                loss_rate=conditions.loss_rate,
                crash_count=conditions.crash_count,
                frames=conditions.num_frames,
            )
            if telemetry is not None
            else None
        )
        try:
            horizon = conditions.horizon_s
            for node in cameras.values():
                node.start()
                node.start_heartbeats(conditions.heartbeat_s, until=horizon)
                node.start_operation(
                    conditions.seconds_per_frame, until=horizon
                )
            controller_node.enable_liveness(
                conditions.heartbeat_s,
                miss_threshold=conditions.miss_threshold,
                until=horizon,
            )

            camera_algorithms = {}
            for camera_id in dataset.camera_ids:
                cam_plan = controller.camera_plan(
                    camera_id, conditions.budget
                )
                if cam_plan is None:
                    continue
                camera_algorithms[camera_id] = sorted(
                    p.algorithm
                    for p in cam_plan.item.profiles.values()
                    if p.energy_per_frame + cam_plan.communication_cost
                    <= cam_plan.budget
                )
            controller_node.start_assessment(
                camera_algorithms, timeout_s=conditions.assessment_timeout_s
            )

            if checkpointer is not None or telemetry is not None:
                spf = conditions.seconds_per_frame
                total_ticks = max(1, int(horizon / spf))

                for tick in range(total_ticks):
                    # Each frame tick is a round boundary: the same
                    # flush-then-checkpoint sequence as the run loop.
                    sim.schedule(
                        (tick + 1) * spf - sim.now,
                        lambda t=tick: close_round(
                            t, total_ticks, sim.now, telemetry,
                            coordinator, checkpointer, _progress,
                        ),
                    )

            sim.run(until=horizon + conditions.seconds_per_frame)
        finally:
            if checkpointer is not None:
                checkpointer.finish()
            if telemetry is not None:
                controller_node.close_telemetry()
                telemetry.tracer.end(run_span, simulated_s=sim.now)

        if resume_state is not None:
            _verify_chaos_replay(resume_state, sim, injector)

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
            if idx < conditions.assessment_frames:
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
