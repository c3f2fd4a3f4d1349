"""Chaos experiment: a networked deployment under injected faults.

Where the ideal environment drives the EECS loop as an in-process
frame feed, this experiment deploys the same trained engine in the
:class:`~repro.engine.environment.FaultInjectedEnvironment` — the
discrete-event network with reliable transport, heartbeats and
liveness — and lets a :class:`~repro.faults.plan.FaultPlan` break
things: lossy links force retransmissions (paid in Joules), crashed
cameras go silent until the controller declares them dead and
re-selects over the survivors.  :func:`run_chaos` is a thin adapter:
it translates a :class:`ChaosSpec` into
:class:`~repro.engine.environment.NetworkConditions`, deploys, and
wraps the outcome.

The headline metric is *accuracy retention*: the faulty run's
operational detection rate divided by the zero-fault run's, on the
same frames and seed.  The paper's claim that selection keeps accuracy
near the γ-scaled baseline only means something in deployment if it
also survives the failure modes its battery-and-wireless premise
implies.

Everything is seeded — the plan carries the loss/crash randomness, the
cameras derive their detection rng from their node id — so a chaos
run is reproducible from its :class:`ChaosSpec` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.core import DeploymentEngine
from repro.engine.environment import (
    FaultInjectedEnvironment,
    NetworkConditions,
)
from repro.faults.events import FaultEvent, RecoveryEvent
from repro.faults.plan import (
    CalibrationDrift,
    ClockSkew,
    Crash,
    FaultPlan,
    MessageCorruption,
    SensorFault,
)
from repro.resilience.ladder import ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.hooks import CheckpointConfig
    from repro.telemetry.core import Telemetry


@dataclass(frozen=True)
class ChaosSpec:
    """One fault-injected deployment configuration.

    Attributes:
        dataset_number: Which synthetic dataset to deploy on.
        loss_rate: Uniform per-transmission packet loss on every link.
        crash_count: How many cameras crash (in camera-id order) at
            ``crash_at_s``.
        seed: Seeds the fault injector's rng.
        num_frames: Ground-truth frames in the deployment window; the
            first ``assessment_frames`` feed the assessment round and
            the rest are operational.
        assessment_frames: Frames per accuracy assessment.
        budget: Per-frame energy budget applied to every camera.
        start: First dataset frame of the window.
        seconds_per_frame: Operational cadence (paper: one frame/2 s).
        heartbeat_s: Camera liveness beacon interval.
        miss_threshold: Heartbeats missed before a camera is declared
            dead.
        crash_at_s: When the crashed cameras die (``None`` = one third
            into the horizon, after the assignment is in force).
        reboot_s: Optional reboot time for the crashed cameras.
        assessment_timeout_s: Deadline for closing an assessment round
            on partial data.
        fault_camera_count: How many cameras (in camera-id order) the
            data-plane faults below target.
        sensor_noise: Per-detection suppression probability during the
            fault window (a noisy sensor loses real detections).
        sensor_fp_rate: Poisson rate of fabricated detections per
            message during the fault window.
        stuck: Freeze the targeted sensors on their last healthy frame
            during the window.
        score_drift_per_s: Calibration drift applied to detection
            scores (units of score per simulated second).
        clock_skew: Fractional local-clock skew (0.5 = intervals run
            50% slow) on the targeted cameras.
        corruption_rate: Probability a delivered message from a
            targeted camera arrives garbled.
        fault_start_s: Data-plane fault window start (``None`` = one
            third into the horizon, after the first assignment).
        fault_end_s: Data-plane fault window end (``None`` = horizon).
        resilience: Deploy with the graceful-degradation layer
            (health monitoring, circuit breakers, staged quarantine).
    """

    dataset_number: int = 1
    loss_rate: float = 0.0
    crash_count: int = 0
    seed: int = 7
    num_frames: int = 18
    assessment_frames: int = 2
    budget: float = 2.0
    start: int = 1000
    seconds_per_frame: float = 2.0
    heartbeat_s: float = 2.0
    miss_threshold: int = 3
    crash_at_s: float | None = None
    reboot_s: float | None = None
    assessment_timeout_s: float = 5.0
    fault_camera_count: int = 1
    sensor_noise: float = 0.0
    sensor_fp_rate: float = 0.0
    stuck: bool = False
    score_drift_per_s: float = 0.0
    clock_skew: float = 0.0
    corruption_rate: float = 0.0
    fault_start_s: float | None = None
    fault_end_s: float | None = None
    resilience: ResilienceConfig | None = None

    @property
    def horizon_s(self) -> float:
        """Simulated duration: one tick per frame plus start-up slack."""
        return self.seconds_per_frame * (self.num_frames + 4)

    def build_plan(self, camera_ids: list[str]) -> FaultPlan:
        """The default plan: uniform loss, mid-run crashes, and any
        configured data-plane faults on the first
        ``fault_camera_count`` cameras."""
        plan = FaultPlan.uniform_loss(self.loss_rate, seed=self.seed)
        crash_at = (
            self.crash_at_s
            if self.crash_at_s is not None
            else self.horizon_s / 3.0
        )
        crashes = tuple(
            Crash(camera_id, at_s=crash_at, reboot_s=self.reboot_s)
            for camera_id in camera_ids[: self.crash_count]
        )
        plan = plan.with_crashes(*crashes)

        start = (
            self.fault_start_s
            if self.fault_start_s is not None
            else self.horizon_s / 3.0
        )
        end = (
            self.fault_end_s if self.fault_end_s is not None else self.horizon_s
        )
        data_faults = []
        for camera_id in camera_ids[: self.fault_camera_count]:
            if self.sensor_noise or self.sensor_fp_rate or self.stuck:
                data_faults.append(
                    SensorFault(
                        node_id=camera_id,
                        start_s=start,
                        end_s=end,
                        noise=self.sensor_noise,
                        false_positive_rate=self.sensor_fp_rate,
                        stuck=self.stuck,
                    )
                )
            if self.score_drift_per_s:
                data_faults.append(
                    CalibrationDrift(
                        node_id=camera_id,
                        start_s=start,
                        end_s=end,
                        score_drift_per_s=self.score_drift_per_s,
                    )
                )
            if self.clock_skew:
                data_faults.append(
                    ClockSkew(
                        node_id=camera_id,
                        skew=self.clock_skew,
                        start_s=start,
                        end_s=end,
                    )
                )
            if self.corruption_rate:
                data_faults.append(
                    MessageCorruption(
                        node_a=camera_id,
                        rate=self.corruption_rate,
                        start_s=start,
                        end_s=end,
                    )
                )
        return plan.with_data_faults(*data_faults)

    def to_conditions(
        self, camera_ids: list[str], plan: FaultPlan | None = None
    ) -> NetworkConditions:
        """The engine-level network conditions this spec describes."""
        return NetworkConditions(
            plan=plan if plan is not None else self.build_plan(camera_ids),
            start=self.start,
            num_frames=self.num_frames,
            assessment_frames=self.assessment_frames,
            budget=self.budget,
            seconds_per_frame=self.seconds_per_frame,
            heartbeat_s=self.heartbeat_s,
            miss_threshold=self.miss_threshold,
            assessment_timeout_s=self.assessment_timeout_s,
            horizon_s=self.horizon_s,
            seed=self.seed,
            loss_rate=self.loss_rate,
            crash_count=self.crash_count,
            resilience=self.resilience,
        )


@dataclass
class ChaosResult:
    """Outcome of one fault-injected deployment run."""

    spec: ChaosSpec
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
        if self.humans_present == 0:
            return 0.0
        return self.humans_detected / self.humans_present

    @property
    def total_radio_joules(self) -> float:
        return sum(self.battery_by_camera.values())

    def fault_kinds(self) -> list[str]:
        return [e.kind for e in self.fault_events]


def accuracy_retention(faulty: ChaosResult, baseline: ChaosResult) -> float:
    """Fraction of the zero-fault detection rate retained under faults."""
    if baseline.detection_rate == 0.0:
        return 0.0
    return faulty.detection_rate / baseline.detection_rate


def run_chaos(
    spec: ChaosSpec,
    engine: DeploymentEngine,
    plan: FaultPlan | None = None,
    telemetry: "Telemetry | None" = None,
    checkpoint: "CheckpointConfig | None" = None,
) -> ChaosResult:
    """Deploy ``engine``'s trained fleet over the event network under
    ``spec``'s faults and measure what the controller actually saw.

    A thin adapter over the engine's environment seam: the spec
    becomes :class:`~repro.engine.environment.NetworkConditions`, the
    engine deploys in a
    :class:`~repro.engine.environment.FaultInjectedEnvironment`, and
    the outcome is wrapped with its spec.  The shared engine is
    only read (library, matcher, detectors); the environment builds
    its own controller and batteries, so cached engines stay pristine
    for other experiments.

    With a :class:`~repro.telemetry.core.Telemetry` attached, the run
    emits the full observability surface — network/energy/controller
    metrics, a run → round → phase → camera-op span tree, and
    structured events mirroring the fault log — without perturbing any
    rng stream: the faulty trajectory is bit-identical either way.

    With a :class:`~repro.checkpoint.hooks.CheckpointConfig` attached,
    the deployment checkpoints progress markers every ``K`` frame
    ticks and resumes by verified deterministic replay (see
    :class:`~repro.engine.environment.FaultInjectedEnvironment`).
    """
    conditions = spec.to_conditions(engine.dataset.camera_ids, plan=plan)
    outcome = engine.deploy(
        FaultInjectedEnvironment(
            conditions, telemetry=telemetry, checkpoint=checkpoint
        )
    )
    return ChaosResult(spec=spec, **vars(outcome))


def chaos_sweep(
    engine: DeploymentEngine,
    loss_rates: tuple[float, ...] = (0.0, 0.2),
    crash_counts: tuple[int, ...] = (0, 1),
    **spec_kwargs,
) -> list[tuple[ChaosSpec, ChaosResult]]:
    """Loss-rate x crash-count grid, sharing one trained engine."""
    results = []
    for loss_rate in loss_rates:
        for crash_count in crash_counts:
            spec = ChaosSpec(
                loss_rate=loss_rate, crash_count=crash_count, **spec_kwargs
            )
            results.append((spec, run_chaos(spec, engine)))
    return results
