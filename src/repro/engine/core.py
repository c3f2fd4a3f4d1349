"""The deployment engine: one loop for every coordination strategy.

Reproduces the paper's evaluation protocol (Section VI-E): only
ground-truth-annotated frames are processed; the controller assesses
accuracy on the metadata of one assessment period, selects cameras and
algorithms, and the selection runs until the next re-calibration
interval.  Energy is accounted per camera per frame through the fitted
processing model plus the communication model; detected humans are
counted after cross-camera re-identification.

The engine owns the *phase schedule* — assessment periods,
re-calibration intervals, per-frame operation — paced by an explicit
:class:`~repro.engine.clock.SimulationClock`.  Everything else is
pluggable:

* **what runs where** comes from a
  :class:`~repro.engine.policy.CoordinationPolicy` (no mode-string
  branching: a policy plans rounds and turns assessments into
  decisions);
* **how detection executes** comes from a
  :class:`~repro.engine.executor.DetectionExecutor`: the engine packs
  a round's (frame, camera, algorithm) triples into one
  :class:`~repro.detection.batch.DetectionBatch` and hands it to the
  backend (serial reference or zero-copy shared-memory process pool)
  — bit-identical by construction, because every task seeds its own
  generator from the run entropy plus its coordinates.

This loop is the ideal in-process frame feed; a networked
:class:`~repro.engine.spec.DeploymentSpec` runs the same trained
engine in :class:`~repro.engine.environment.FaultInjectedEnvironment`
instead.

Telemetry and energy accounting hook the engine's phase boundaries:
the run/round span tree, the phase spans (the only timer: untraced
runs enter one shared no-op context instead) and per-camera energy
metering all live here, once.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.checkpoint.codec import (
    controller_state_to_dict,
    decision_from_dict,
    decision_to_dict,
    live_telemetry_to_dict,
    policy_state_to_dict,
    restore_controller_state,
    restore_live_telemetry,
    restore_policy_state,
    restore_rng_state,
    rng_state_to_dict,
)
from repro.core.config import EECSConfig
from repro.core.controller import (
    CAMERA_ACTIVE,
    EECSController,
    SelectionDecision,
)
from repro.core.selection import AssessmentData
from repro.datasets.base import FrameRecord
from repro.datasets.groundtruth import persons_in_any_view
from repro.detection.base import Detection
from repro.detection.batch import DetectionBatch, DetectionTask
from repro.energy.battery import Battery
from repro.energy.communication import CommunicationEnergyModel
from repro.energy.meter import EnergyMeter
from repro.engine.clock import SimulationClock
from repro.engine.context import DeploymentContext
from repro.engine.executor import DetectionExecutor, make_executor
from repro.engine.policy import (
    CoordinationPolicy,
    resolve_policy,
    validate_cells,
)
from repro.faults.events import FaultLog
from repro.fleet.cells import CellLayout, normalize_cells
from repro.reid.matcher import GroupingMemo
from repro.resilience.ladder import (
    ResilienceConfig,
    ResilienceCoordinator,
    build_coordinator,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.hooks import RunCheckpointer
    from repro.fleet.runtime import FleetRuntime
    from repro.telemetry.core import Telemetry

#: What an untraced engine enters for every phase section: one shared,
#: reusable context, so sections allocate nothing without telemetry.
_NO_SPAN = nullcontext()


@dataclass
class RunResult:
    """Outcome of one simulated deployment run."""

    mode: str
    humans_detected: int
    humans_present: int
    energy_joules: float
    processing_joules: float
    communication_joules: float
    energy_by_camera: dict[str, float]
    mean_fused_probability: float
    frames_evaluated: int
    decisions: list[SelectionDecision] = field(default_factory=list)
    processing_seconds: float = 0.0

    @property
    def detection_rate(self) -> float:
        """Fraction of present humans that were detected."""
        if self.humans_present == 0:
            return 0.0
        return self.humans_detected / self.humans_present

    def max_latency_per_frame(self) -> float:
        """Mean per-camera processing seconds per evaluated frame.

        The paper processes one frame every ``seconds_per_frame``
        (2 s); a deployment whose per-frame latency exceeds that
        cadence cannot keep up in real time — the stated reason LSVM
        is excluded despite its accuracy (Section VI-A).
        """
        if self.frames_evaluated == 0:
            return 0.0
        return self.processing_seconds / self.frames_evaluated


def close_round(
    unit: int,
    total: int,
    now_s: float,
    telemetry: "Telemetry | None",
    resilience: ResilienceCoordinator | None,
    checkpointer: "RunCheckpointer | None",
    capture: Callable[[], dict],
) -> None:
    """The round-boundary sequence, shared by the ideal run loop and
    the networked environment's frame ticks.

    The live flush comes *before* the checkpoint decision: a crash
    right after the save then finds every unit <= the checkpoint
    already streamed, which is what resume stitching assumes.
    """
    if telemetry is not None:
        if resilience is not None and telemetry.live_enabled:
            resilience.record_metrics(telemetry)
        telemetry.flush_round(unit, now_s)
    if checkpointer is not None:
        checkpointer.unit_complete(unit, total, capture)


def count_true_detections(groups, present: set) -> int:
    """Distinct ground-truth persons confirmed by fused groups.

    Shared by the ideal frame loop and the networked environment's
    post-hoc scoring, so "detected" means the same thing under both.
    """
    detected_ids = {
        group.majority_truth_id for group in groups if group.is_true_object
    }
    return len(detected_ids & present)


class DeploymentEngine:
    """Drives one trained context through the EECS control loop."""

    def __init__(
        self,
        context: DeploymentContext,
        seed: int = 2017,
        rng: np.random.Generator | None = None,
        executor: DetectionExecutor | None = None,
        telemetry: "Telemetry | None" = None,
        clock: SimulationClock | None = None,
    ) -> None:
        self.context = context
        # Per-engine references (assignable without touching the
        # shared context): the substrate a run reads.
        self.dataset = context.dataset
        self.config = context.config
        self.detectors = context.detectors
        self.library = context.library
        self.matcher = context.matcher
        self.energy_model = context.energy_model

        self._seed = seed
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.telemetry = telemetry
        self.clock = clock or SimulationClock(
            seconds_per_frame=self.config.seconds_per_frame
        )
        self.executor = executor or make_executor(1)
        self._latency_seconds = 0.0
        # Per-run resilience coordinator (None = layer off, the inert
        # default); assigned at run start, cleared when the run ends.
        self._resilience: ResilienceCoordinator | None = None
        # Per-run fleet runtime (cell controllers + budget
        # coordinator), attached by fleet-aware policies during
        # plan_rounds and cleared when the run ends.  The engine loop
        # never branches on it beyond mirroring camera-mode
        # transitions and folding its state into checkpoints.
        self._fleet: "FleetRuntime | None" = None
        # The run's requested cell layout (normalised in run()); None
        # for flat policies, which reject a layout.
        self.cell_layout: CellLayout | None = None

        self.controller = self.build_controller(
            telemetry=telemetry,
            now_fn=(lambda: self.clock.now_s) if telemetry else None,
            battery_factory=(
                self._instrumented_battery if telemetry else None
            ),
        )
        self._camera_order = {
            camera_id: index
            for index, camera_id in enumerate(self.dataset.camera_ids)
        }
        self._algorithm_order = {
            name: index for index, name in enumerate(sorted(self.detectors))
        }
        self._run_entropy: tuple[int, ...] = (seed,)

    @property
    def seed(self) -> int:
        """The run-entropy seed every run of this engine starts from."""
        return self._seed

    def close(self) -> None:
        """Release the engine's executor backend (pools, shared
        segments).  Safe to call more than once; the serial backend
        makes this a no-op."""
        self.executor.close()

    def _section(self, name: str):
        """A tracer span for one phase section, or the shared no-op
        context when no telemetry is attached."""
        if self.telemetry is None:
            return _NO_SPAN
        return self.telemetry.tracer.span(name)

    def _instrumented_battery(self, camera_id: str) -> Battery:
        battery = Battery()
        battery.instrument(
            self.telemetry, camera_id, clock=lambda: self.clock.now_s
        )
        return battery

    def build_controller(
        self,
        telemetry: "Telemetry | None" = None,
        now_fn: Callable[[], float] | None = None,
        battery_factory: Callable[[str], Battery] | None = None,
        camera_ids: list[str] | None = None,
    ) -> EECSController:
        """A fresh controller with every camera registered.

        Used for the engine's own in-process controller, by the
        networked environment (which provisions an independent
        controller per deployment so shared engines stay pristine),
        and by the fleet runtime, which passes ``camera_ids`` to scope
        a controller to one cell's cameras.
        """
        controller = EECSController(
            self.config, self.library, self.matcher, telemetry=telemetry
        )
        if now_fn is not None:
            controller.now_fn = now_fn
        env = self.dataset.environment
        if camera_ids is None:
            camera_ids = self.dataset.camera_ids
        for camera_id in camera_ids:
            battery = (
                battery_factory(camera_id) if battery_factory else Battery()
            )
            controller.register_camera(
                camera_id,
                processing_model=self.energy_model,
                communication_model=CommunicationEnergyModel(
                    width=env.width, height=env.height
                ),
                battery=battery,
            )
            controller.assign_training_item(camera_id, f"T-{camera_id}")
        return controller

    # ------------------------------------------------------------------
    # Phase-schedule parameters
    # ------------------------------------------------------------------
    @property
    def gt_frames_per_round(self) -> int:
        """Ground-truth frames per re-calibration interval."""
        return max(
            1,
            self.config.recalibration_interval // self.dataset.spec.gt_every,
        )

    @property
    def gt_frames_per_assessment(self) -> int:
        """Ground-truth frames per assessment period."""
        return max(
            1, self.config.assessment_period // self.dataset.spec.gt_every
        )

    # ------------------------------------------------------------------
    # Per-frame primitives
    # ------------------------------------------------------------------
    def _task_entropy(
        self, record: FrameRecord, camera_id: str, algorithm: str
    ) -> tuple[int, ...]:
        """Seed entropy of one detection task.

        A pure function of the run configuration and the task's
        (frame, camera, algorithm) coordinates — never of execution
        order — which is what makes any executor backend reproduce the
        serial run exactly.
        """
        return (
            *self._run_entropy,
            record.frame_index,
            self._camera_order[camera_id],
            self._algorithm_order[algorithm],
        )

    def _batch_detections(
        self,
        requests: list[tuple[FrameRecord, str, str]],
        meter: EnergyMeter,
    ) -> dict[tuple[int, str, str], list[Detection]]:
        """Detect every requested (frame, camera, algorithm) triple.

        Detection itself fans out over the engine's executor backend;
        accounting (probability calibration, energy metering, latency)
        runs serially afterwards in request order.

        Returns detections keyed by
        ``(frame_index, camera_id, algorithm)``.
        """
        tasks: list[DetectionTask] = []
        for record, camera_id, algorithm in requests:
            threshold = (
                self.library.get(f"T-{camera_id}")
                .profile(algorithm)
                .threshold
            )
            tasks.append(
                DetectionTask(
                    algorithm=algorithm,
                    observation=record.observation(camera_id),
                    entropy=self._task_entropy(record, camera_id, algorithm),
                    threshold=threshold,
                )
            )
        batch = DetectionBatch(tasks=tuple(tasks))
        with self._section("detection"):
            elapsed = time.perf_counter()
            results = self.executor.execute(batch, self.detectors)
            elapsed = time.perf_counter() - elapsed
        if self.telemetry is not None:
            self._record_batch_metrics(batch, elapsed)
        out: dict[tuple[int, str, str], list[Detection]] = {}
        for (record, camera_id, algorithm), detections in zip(
            requests, results
        ):
            self.controller.calibrate_probabilities(camera_id, detections)
            if self._resilience is not None:
                # Same stream the networked controller scores from its
                # metadata messages; pure bookkeeping, no rng.
                self._resilience.monitor.observe_detections(
                    camera_id,
                    algorithm,
                    record.frame_index,
                    [det.score for det in detections],
                )
            if self.telemetry is not None:
                # Recorded here, in the serial accounting loop, so the
                # counters are identical for any executor backend.
                self.telemetry.observe_detections(
                    camera_id, algorithm, detections
                )
            meter.record_processing(
                camera_id, self.energy_model.energy_per_frame(algorithm)
            )
            self._latency_seconds += self.energy_model.time_per_frame(
                algorithm
            )
            comm = self.controller.camera(camera_id).communication_model
            meter.record_communication(
                camera_id, comm.metadata_cost(len(detections))
            )
            out[(record.frame_index, camera_id, algorithm)] = detections
        return out

    def _record_batch_metrics(
        self, batch: DetectionBatch, elapsed: float
    ) -> None:
        """Wire one executed batch into the telemetry registry."""
        registry = self.telemetry.registry
        backend = self.executor.name
        registry.counter(
            "detection_batches_total",
            "Detection batches handed to the executor.",
            labels=("backend",),
        ).inc(backend=backend)
        registry.counter(
            "detection_batch_tasks_total",
            "Detection tasks executed via batches.",
            labels=("backend",),
        ).inc(len(batch), backend=backend)
        registry.counter(
            "detection_execute_seconds_total",
            "Wall-clock seconds spent inside executor.execute().",
            labels=("backend",),
        ).inc(elapsed, backend=backend)
        stats = self.executor.drain_stats()
        if stats:
            registry.counter(
                "shm_frame_publishes_total",
                "Shared-memory frame store lookups.",
                labels=("outcome",),
            ).inc(stats.get("shm_hits", 0), outcome="hit")
            registry.counter(
                "shm_frame_publishes_total",
                "Shared-memory frame store lookups.",
                labels=("outcome",),
            ).inc(stats.get("shm_misses", 0), outcome="miss")
            registry.gauge(
                "shm_segments",
                "Shared-memory segments currently allocated.",
            ).set(stats.get("shm_segments", 0))
            registry.gauge(
                "shm_published_bytes",
                "Total frame bytes published to shared memory.",
            ).set(stats.get("shm_published_bytes", 0))

    def affordable_algorithms(
        self, camera_id: str, budget: float | None
    ) -> list[str]:
        """Algorithms within a camera's per-frame budget."""
        plan = self.controller.camera_plan(camera_id, budget)
        if plan is None:
            return []
        comm = plan.communication_cost
        return [
            p.algorithm
            for p in plan.item.profiles.values()
            if p.energy_per_frame + comm <= plan.budget
        ]

    def collect_assessment(
        self,
        records: list[FrameRecord],
        budget: float | None,
        meter: EnergyMeter,
        skip_cameras: tuple[str, ...] = (),
    ) -> AssessmentData:
        """Run all affordable algorithms on the assessment frames.

        Cameras in ``skip_cameras`` (a predictive round's sleepers)
        contribute no assessment metadata and, because the meter only
        ever sees executed requests, are charged nothing.
        """
        skipped = set(skip_cameras)
        plan: list[tuple[FrameRecord, dict[str, list[str]]]] = []
        requests: list[tuple[FrameRecord, str, str]] = []
        for record in records:
            per_camera: dict[str, list[str]] = {}
            for camera_id in self.dataset.camera_ids:
                if camera_id in skipped:
                    continue
                algorithms = self.affordable_algorithms(camera_id, budget)
                if not algorithms:
                    continue
                per_camera[camera_id] = algorithms
                requests.extend(
                    (record, camera_id, algorithm)
                    for algorithm in algorithms
                )
            plan.append((record, per_camera))
        detections = self._batch_detections(requests, meter)
        assessment = AssessmentData()
        for record, per_camera in plan:
            assessment.frames.append({
                camera_id: {
                    algorithm: detections[
                        (record.frame_index, camera_id, algorithm)
                    ]
                    for algorithm in algorithms
                }
                for camera_id, algorithms in per_camera.items()
            })
        return assessment

    def _evaluate_frame(
        self,
        record: FrameRecord,
        assignment: dict[str, str],
        meter: EnergyMeter,
        detections_cache: dict[str, list[Detection]] | None = None,
        memo: GroupingMemo | None = None,
    ) -> tuple[int, int, list[float]]:
        """Detect with the active assignment, fuse, count humans.

        ``memo`` may be passed only when every detection comes from
        ``detections_cache`` and outlives it (see :class:`GroupingMemo`).

        Returns (detected, present, fused probabilities).
        """
        missing = [
            (record, camera_id, algorithm)
            for camera_id, algorithm in assignment.items()
            if detections_cache is None or camera_id not in detections_cache
        ]
        computed = (
            self._batch_detections(missing, meter) if missing else {}
        )
        detections: list[Detection] = []
        for camera_id, algorithm in assignment.items():
            if detections_cache is not None and camera_id in detections_cache:
                detections.extend(detections_cache[camera_id])
            else:
                detections.extend(
                    computed[(record.frame_index, camera_id, algorithm)]
                )
        with self._section("reid_grouping"):
            groups = self.matcher.group(detections, memo)
        present = persons_in_any_view(record.observations)
        probabilities = [g.fused_probability for g in groups]
        return (
            count_true_detections(groups, present),
            len(present),
            probabilities,
        )

    def _evaluate_batch(
        self,
        records: list[FrameRecord],
        assignments: list[dict[str, str]],
        meter: EnergyMeter,
    ) -> tuple[int, int, list[float]]:
        """Evaluate many frames, detecting them all in one fan-out."""
        requests = [
            (record, camera_id, algorithm)
            for record, assignment in zip(records, assignments)
            for camera_id, algorithm in assignment.items()
        ]
        detections = self._batch_detections(requests, meter)
        detected_total = 0
        present_total = 0
        probabilities: list[float] = []
        for record, assignment in zip(records, assignments):
            cache = {
                camera_id: detections[
                    (record.frame_index, camera_id, algorithm)
                ]
                for camera_id, algorithm in assignment.items()
            }
            detected, present, probs = self._evaluate_frame(
                record, assignment, meter, detections_cache=cache
            )
            detected_total += detected
            present_total += present
            probabilities.extend(probs)
        return detected_total, present_total, probabilities

    # ------------------------------------------------------------------
    # Fleet seam
    # ------------------------------------------------------------------
    def attach_fleet(self, runtime: "FleetRuntime") -> None:
        """Adopt a fleet runtime for the duration of the current run.

        Called by cell-aware policies from ``plan_rounds``.  The
        engine loop stays policy-agnostic: it only mirrors camera-mode
        transitions into the runtime (so the resilience ladder reaches
        cell controllers) and folds its state into checkpoints.
        """
        self._fleet = runtime

    def _set_camera_mode(self, camera_id: str, mode: str) -> None:
        """Apply a mode transition to the engine controller and, when
        a fleet runtime is attached, to the owning cell controller."""
        self.controller.set_camera_mode(camera_id, mode)
        if self._fleet is not None:
            self._fleet.set_camera_mode(camera_id, mode)

    def all_best_assignment(self, budget: float | None) -> dict[str, str]:
        """Every camera on its most accurate affordable algorithm."""
        assignment = {}
        for camera_id in self.dataset.camera_ids:
            plan = self.controller.camera_plan(camera_id, budget)
            if plan is not None:
                assignment[camera_id] = plan.best_algorithm
        if not assignment:
            raise RuntimeError("no camera can afford any algorithm")
        return assignment

    # ------------------------------------------------------------------
    # The deployment loop
    # ------------------------------------------------------------------
    def run(
        self,
        policy: CoordinationPolicy | str = "full",
        budget: float | None = None,
        assignment: dict[str, str] | None = None,
        start: int | None = None,
        end: int | None = None,
        checkpointer: "RunCheckpointer | None" = None,
        resilience: ResilienceConfig | None = None,
        cells: int | tuple | list | None = None,
    ) -> RunResult:
        """Simulate a deployment over the dataset's test segment.

        Args:
            policy: A registered policy name (``"all_best"``,
                ``"subset"``, ``"full"``, ``"fixed"``) or a
                :class:`~repro.engine.policy.CoordinationPolicy`
                instance.
            budget: Per-frame energy budget applied to every camera
                (``None`` derives it from the battery as in the paper).
            assignment: Required by assignment-taking policies
                (``"fixed"``): the static camera -> algorithm map.
            start: First frame (defaults to the test segment start).
            end: One past the last frame (defaults to the dataset end).
            checkpointer: Crash-safe checkpoint/resume driver.  The
                run snapshots its full state every ``K`` completed
                rounds (and on SIGTERM); a resumed run restores the
                snapshot and skips the completed rounds, finishing
                bit-identically to an uninterrupted run.  The
                executor is deliberately absent from the checkpoint
                fingerprint: any backend reproduces the serial run, so
                a deployment may resume on an engine with a different
                worker count.
            resilience: Graceful-degradation layer configuration
                (``None`` or ``enabled=False`` keeps the layer off).
                The ideal feed has no radio and no fault source, so
                the monitor only ever sees the clean detection stream:
                health stays at 1.0, every camera stays active, and
                the run is bit-identical to a resilience-off run — the
                layer's inertness guarantee.  Mode transitions, were
                the thresholds tightened enough to force them, apply
                to the controller exactly as in the networked
                environment.
            cells: Fleet cell layout for the cell-aware policies
                (``"cell"``, ``"cell_full"``): a cell count, an
                explicit tuple of camera-id tuples, or ``None`` (one
                cell spanning the fleet).  Any other policy rejects a
                layout with ``ValueError``.
        """
        policy = resolve_policy(policy)
        policy.validate(assignment)
        validate_cells(policy, cells)
        self.cell_layout = (
            normalize_cells(cells, self.dataset.camera_ids)
            if cells is not None
            else None
        )
        # Reseed per run configuration so results are independent of
        # how many runs preceded this one on the shared engine.  The
        # same entropy also seeds every per-task generator, keyed by
        # its (frame, camera, algorithm) coordinates.
        self._run_entropy = (
            self._seed,
            policy.entropy_token(),
            0 if start is None else start,
            0 if budget is None else int(budget * 1000),
        )
        self.rng = np.random.default_rng(list(self._run_entropy))

        spec = self.dataset.spec
        start = spec.train_end if start is None else start
        end = spec.total_frames if end is None else end
        records = self.dataset.frames(start, end, only_ground_truth=True)

        meter = EnergyMeter(telemetry=self.telemetry)
        self._latency_seconds = 0.0
        detected_total = 0
        present_total = 0
        probabilities: list[float] = []
        decisions: list[SelectionDecision] = []

        rounds = policy.plan_rounds(self, records, budget, assignment)
        budget_overrides = (
            {c: budget for c in self.dataset.camera_ids}
            if budget is not None
            else None
        )

        self._resilience = build_coordinator(
            resilience, list(self.dataset.camera_ids), fault_log=FaultLog()
        )
        # Every run starts with a fully admitted fleet; a prior run's
        # ladder decisions must not leak through the shared controller.
        for camera_id in self.dataset.camera_ids:
            self._set_camera_mode(camera_id, CAMERA_ACTIVE)

        first_round = 0
        if checkpointer is not None:
            metadata = {
                "dataset": spec.name,
                "policy": policy.name,
                "seed": self._seed,
                "budget": budget,
                "start": start,
                "end": end,
                "assignment": assignment,
                "num_rounds": len(rounds),
                "cameras": list(self.dataset.camera_ids),
                "resilience": (
                    resilience.to_dict() if resilience is not None
                    else None
                ),
            }
            if self.cell_layout is not None:
                # Only present for cell-aware runs so pre-fleet
                # checkpoint fingerprints are unchanged.
                metadata["cells"] = self.cell_layout.to_dict()
            policy_config = policy.config_fingerprint()
            if policy_config is not None:
                # Only present for configured policies (predictive's
                # wake tunables) so pre-existing checkpoint
                # fingerprints are unchanged — and a resume under a
                # different wake configuration is refused.
                metadata["policy_config"] = policy_config
            resume_state = checkpointer.begin("run", metadata)
            if resume_state is not None:
                (
                    first_round,
                    detected_total,
                    present_total,
                    probabilities,
                    decisions,
                ) = self._restore_checkpoint(resume_state, meter, policy)
                if self.telemetry is not None:
                    # Stitch the live stream: sinks drop every round
                    # this resumed run will flush again, so the final
                    # stream is gap-free with no duplicates.
                    self.telemetry.prepare_resume(first_round)

        run_span = None
        if self.telemetry is not None:
            run_span = self.telemetry.tracer.begin(
                "run",
                mode=policy.name,
                seed=self._seed,
                budget=budget,
                frames=len(records),
            )
        try:
            for round_index, round_plan in enumerate(rounds):
                if round_index < first_round:
                    continue
                if round_plan.assess_count:
                    detected, present, probs, decision = (
                        self._run_assessed_round(
                            round_plan, round_index, policy,
                            budget, budget_overrides, meter,
                        )
                    )
                    decisions.append(decision)
                else:
                    with self._section("operation"):
                        detected, present, probs = self._evaluate_batch(
                            round_plan.records,
                            round_plan.static_assignments,
                            meter,
                        )
                detected_total += detected
                present_total += present
                probabilities.extend(probs)
                if self._resilience is not None:
                    # Round boundary = this path's liveness tick: walk
                    # the ladder and mirror transitions into selection.
                    for transition in self._resilience.evaluate(
                        self.clock.now_s
                    ):
                        self._set_camera_mode(
                            transition.camera_id, transition.new_mode
                        )
                close_round(
                    round_index,
                    len(rounds),
                    self.clock.now_s,
                    self.telemetry,
                    self._resilience,
                    checkpointer,
                    lambda: self._capture_checkpoint(
                        round_index + 1,
                        detected_total,
                        present_total,
                        probabilities,
                        decisions,
                        meter,
                        policy,
                    ),
                )
        finally:
            if run_span is not None:
                self.telemetry.tracer.end(run_span)
            if checkpointer is not None:
                checkpointer.finish()
            self._resilience = None
            self._fleet = None

        if self.telemetry is not None:
            self._record_run_metrics(
                len(records), detected_total, present_total, probabilities
            )

        return RunResult(
            mode=policy.name,
            humans_detected=detected_total,
            humans_present=present_total,
            energy_joules=meter.total(),
            processing_joules=meter.total_by_category(EnergyMeter.PROCESSING),
            communication_joules=meter.total_by_category(
                EnergyMeter.COMMUNICATION
            ),
            energy_by_camera={
                camera_id: meter.total(camera_id)
                for camera_id in meter.camera_ids
            },
            mean_fused_probability=(
                float(np.mean(probabilities)) if probabilities else 0.0
            ),
            frames_evaluated=len(records),
            decisions=decisions,
            processing_seconds=self._latency_seconds,
        )

    def _run_assessed_round(
        self,
        round_plan,
        round_index: int,
        policy: CoordinationPolicy,
        budget: float | None,
        budget_overrides: dict[str, float] | None,
        meter: EnergyMeter,
    ) -> tuple[int, int, list[float], SelectionDecision]:
        """One assess -> select -> operate round of the protocol."""
        self.clock.advance_to_frame(round_plan.records[0].frame_index)
        # Per-round policy adjustment (predictive wake/skip decisions)
        # happens after the clock advance so emitted events carry the
        # round's simulation time, and before any detection runs.
        round_plan = policy.refine_round(self, round_plan, round_index)
        assess_records = round_plan.records[: round_plan.assess_count]
        operate_records = round_plan.records[round_plan.assess_count :]

        round_span = None
        if self.telemetry is not None:
            round_span = self.telemetry.tracer.begin(
                "round",
                index=round_index,
                sim_time_s=self.clock.now_s,
            )
            self.telemetry.registry.counter(
                "run_rounds_total",
                "Assessment/selection rounds executed.",
            ).inc()
        try:
            with self._section("assessment"):
                assessment = self.collect_assessment(
                    assess_records,
                    budget,
                    meter,
                    skip_cameras=round_plan.skip_cameras,
                )
            with self._section("selection"):
                decision = policy.select(
                    self, assessment, budget_overrides, meter
                )

            detected_total = 0
            present_total = 0
            probabilities: list[float] = []
            # Assessment frames are also operational: the all-best
            # detections are already available, reuse them, and the
            # ground points and colour distances selection memoised.
            for idx, record in enumerate(assess_records):
                cache = {
                    camera_id: assessment.detections(
                        idx, camera_id, algorithm
                    )
                    for camera_id, algorithm
                    in decision.assignment.items()
                }
                detected, present, probs = self._evaluate_frame(
                    record,
                    decision.assignment,
                    meter,
                    detections_cache=cache,
                    memo=assessment.grouping_memo,
                )
                detected_total += detected
                present_total += present
                probabilities.extend(probs)

            with self._section("operation"):
                detected, present, probs = self._evaluate_batch(
                    operate_records,
                    [decision.assignment] * len(operate_records),
                    meter,
                )
            detected_total += detected
            present_total += present
            probabilities.extend(probs)
            return detected_total, present_total, probabilities, decision
        finally:
            if round_span is not None:
                self.telemetry.tracer.end(round_span)

    # ------------------------------------------------------------------
    # Checkpoint capture / restore
    # ------------------------------------------------------------------
    def _capture_checkpoint(
        self,
        next_round: int,
        detected_total: int,
        present_total: int,
        probabilities: list[float],
        decisions: list[SelectionDecision],
        meter: EnergyMeter,
        policy: CoordinationPolicy | None = None,
    ) -> dict:
        """Everything :meth:`run` mutates, as exact JSON values."""
        state = {
            "next_round": next_round,
            "clock": self.clock.snapshot(),
            "rng": rng_state_to_dict(self.rng),
            "meter": meter.snapshot(),
            "latency_seconds": self._latency_seconds,
            "detected_total": detected_total,
            "present_total": present_total,
            "probabilities": list(probabilities),
            "decisions": [decision_to_dict(d) for d in decisions],
            "controller": controller_state_to_dict(self.controller),
        }
        if self._resilience is not None:
            state["resilience"] = self._resilience.snapshot()
        if self._fleet is not None:
            state["fleet"] = self._fleet.snapshot()
        if policy is not None:
            policy_state = policy_state_to_dict(policy)
            if policy_state is not None:
                # Only stateful policies (predictive's regressor bank)
                # add this key, so stateless-policy checkpoints keep
                # their pre-existing byte layout.
                state["policy"] = policy_state
        if self.telemetry is not None:
            state["metrics"] = self.telemetry.registry.snapshot()
            state["live"] = live_telemetry_to_dict(self.telemetry)
        return state

    def _restore_checkpoint(
        self,
        state: dict,
        meter: EnergyMeter,
        policy: CoordinationPolicy | None = None,
    ) -> tuple[int, int, int, list[float], list[SelectionDecision]]:
        """Adopt a :meth:`_capture_checkpoint` payload.

        Returns the loop-local accumulators ``(first_round,
        detected_total, present_total, probabilities, decisions)``;
        engine-owned state (clock, rng, controller, meter, telemetry
        counters) is restored in place.
        """
        self.clock.restore(state["clock"])
        restore_rng_state(self.rng, state["rng"])
        meter.restore(state["meter"])
        self._latency_seconds = float(state["latency_seconds"])
        restore_controller_state(self.controller, state["controller"])
        if self._resilience is not None and state.get("resilience"):
            self._resilience.restore(state["resilience"])
        if self._fleet is not None and state.get("fleet"):
            self._fleet.restore(state["fleet"])
        if policy is not None:
            restore_policy_state(policy, state.get("policy"))
        if self.telemetry is not None and state.get("metrics"):
            self.telemetry.registry.merge(state["metrics"])
        if self.telemetry is not None and state.get("live"):
            restore_live_telemetry(self.telemetry, state["live"])
        return (
            int(state["next_round"]),
            int(state["detected_total"]),
            int(state["present_total"]),
            [float(p) for p in state["probabilities"]],
            [decision_from_dict(d) for d in state["decisions"]],
        )

    def _record_run_metrics(
        self,
        frames: int,
        detected_total: int,
        present_total: int,
        probabilities: list[float],
    ) -> None:
        """Mirror one run's outcome into the metrics registry."""
        registry = self.telemetry.registry
        registry.counter(
            "run_frames_total", "Ground-truth frames evaluated."
        ).inc(frames)
        registry.counter(
            "run_humans_detected_total",
            "Humans detected after cross-camera fusion.",
        ).inc(detected_total)
        registry.counter(
            "run_humans_present_total",
            "Humans present in any view on evaluated frames.",
        ).inc(present_total)
        registry.gauge(
            "run_mean_fused_probability",
            "Mean fused detection probability of the latest run.",
        ).set(float(np.mean(probabilities)) if probabilities else 0.0)
