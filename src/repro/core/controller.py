"""The EECS central controller (Section IV).

The controller runs on a server without energy constraints.  It holds
the training library and the GFK video comparator, tracks each
registered camera's budget and matched training item, converts raw
detection scores to probabilities with the matched item's calibrators,
and — given an assessment period's metadata — produces a
:class:`SelectionDecision`: which cameras to activate and which
algorithm each should run until the next re-calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.core import Telemetry

from repro.core.accuracy import DesiredAccuracy, GlobalAccuracy
from repro.core.calibration import TrainingLibrary
from repro.core.config import EECSConfig
from repro.core.ranking import best_affordable
from repro.core.selection import AssessmentData, CameraPlan, SelectionEngine
from repro.detection.base import Detection
from repro.detection.scores import logistic
from repro.domain_adaptation.similarity import VideoComparator
from repro.energy.battery import Battery
from repro.energy.communication import CommunicationEnergyModel
from repro.energy.model import ProcessingEnergyModel
from repro.reid.matcher import CrossCameraMatcher

#: Degradation-ladder modes for a registered camera.  ``active``
#: cameras compete normally for selection; ``degraded`` cameras are
#: pinned to their cheapest affordable detector profile; ``quarantined``
#: cameras are excluded from selection entirely (like dead ones) until
#: a re-admission probe clears them.
CAMERA_ACTIVE = "active"
CAMERA_DEGRADED = "degraded"
CAMERA_QUARANTINED = "quarantined"
CAMERA_MODES = (CAMERA_ACTIVE, CAMERA_DEGRADED, CAMERA_QUARANTINED)


#: Detections per elementwise pass of
#: :meth:`EECSController.calibrate_batch`.
CALIBRATION_PASS = 256


def _fill_probabilities(
    targets: list[Detection], weights: list[float], biases: list[float]
) -> None:
    """Set each target's probability from its calibrator's weight and
    bias in one elementwise pass."""
    scores = np.fromiter(
        (det.score for det in targets), dtype=float, count=len(targets)
    )
    probabilities = logistic(np.array(weights) * scores + np.array(biases))
    for det, probability in zip(targets, probabilities.tolist()):
        det.probability = probability


@dataclass
class CameraState:
    """Controller-side record of one registered camera sensor.

    ``alive`` is the controller's *belief* about the camera (driven by
    heartbeat liveness, not ground truth): dead cameras are excluded
    from selection until they are heard from again.  ``mode`` is the
    resilience ladder position (see :data:`CAMERA_MODES`); it stays
    ``active`` unless a health coordinator moves it.
    """

    camera_id: str
    processing_model: ProcessingEnergyModel
    communication_model: CommunicationEnergyModel
    battery: Battery
    matched_item: str | None = None
    match_similarity: float = float("nan")
    alive: bool = True
    mode: str = CAMERA_ACTIVE


@dataclass
class SelectionDecision:
    """Outcome of one assessment: the plan until re-calibration.

    Attributes:
        assignment: camera id -> algorithm for the active cameras.
        baseline: All-best accuracy ``(N*, P*)`` on the assessment.
        desired: The derived requirement ``[D_n, D_p]``.
        achieved: Predicted accuracy of the final assignment.
        ranked_camera_ids: The accuracy ranking ``S_o`` used.
    """

    assignment: dict[str, str]
    baseline: GlobalAccuracy
    desired: DesiredAccuracy
    achieved: GlobalAccuracy
    ranked_camera_ids: list[str] = field(default_factory=list)

    @property
    def num_active(self) -> int:
        return len(self.assignment)


class EECSController:
    """Central coordinator for a camera sensor network."""

    def __init__(
        self,
        config: EECSConfig,
        library: TrainingLibrary,
        matcher: CrossCameraMatcher,
        comparator: VideoComparator | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.config = config
        self.library = library
        self.matcher = matcher
        self.comparator = comparator
        if comparator is not None:
            # One shared memo cache: PCA/GFK artifacts and their hit
            # counters live with the library that owns the training
            # data, so recalibration cost is visible in one place.
            comparator.cache = library.cache
        self.engine = SelectionEngine(
            matcher, telemetry.tracer if telemetry is not None else None
        )
        self._cameras: dict[str, CameraState] = {}
        self.telemetry = telemetry
        #: Simulated-time source for decision events; the owning loop
        #: (frame runner or event simulator) wires this.
        self.now_fn: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------------
    # Camera registration and feature matching
    # ------------------------------------------------------------------
    def register_camera(
        self,
        camera_id: str,
        processing_model: ProcessingEnergyModel,
        communication_model: CommunicationEnergyModel,
        battery: Battery,
    ) -> CameraState:
        if camera_id in self._cameras:
            raise ValueError(f"camera {camera_id!r} already registered")
        state = CameraState(
            camera_id=camera_id,
            processing_model=processing_model,
            communication_model=communication_model,
            battery=battery,
        )
        self._cameras[camera_id] = state
        return state

    @property
    def camera_ids(self) -> list[str]:
        return list(self._cameras)

    @property
    def alive_camera_ids(self) -> list[str]:
        return [c for c, s in self._cameras.items() if s.alive]

    def mark_camera_dead(self, camera_id: str) -> None:
        """Exclude a camera from selection (liveness declared it dead)."""
        self.camera(camera_id).alive = False

    def mark_camera_alive(self, camera_id: str) -> None:
        """Re-admit a camera to selection (it was heard from again)."""
        self.camera(camera_id).alive = True

    def set_camera_mode(self, camera_id: str, mode: str) -> None:
        """Move a camera along the degradation ladder."""
        if mode not in CAMERA_MODES:
            raise ValueError(
                f"unknown camera mode {mode!r}; valid: {CAMERA_MODES}"
            )
        self.camera(camera_id).mode = mode

    def camera(self, camera_id: str) -> CameraState:
        try:
            return self._cameras[camera_id]
        except KeyError:
            raise KeyError(
                f"camera {camera_id!r} not registered; "
                f"known: {sorted(self._cameras)}"
            ) from None

    def receive_features(
        self, camera_id: str, features: np.ndarray
    ) -> tuple[str, float]:
        """Match uploaded frame features to the closest training item
        (Section IV-B.2).  Requires a configured comparator."""
        if self.comparator is None:
            raise RuntimeError(
                "controller has no video comparator; use "
                "assign_training_item() for direct assignment"
            )
        state = self.camera(camera_id)
        name, similarity = self.comparator.best_match(features)
        state.matched_item = name
        state.match_similarity = similarity
        return name, similarity

    def assign_training_item(self, camera_id: str, item_name: str) -> None:
        """Directly bind a camera to a training item (bypasses GFK)."""
        if item_name not in self.library:
            raise KeyError(f"unknown training item {item_name!r}")
        self.camera(camera_id).matched_item = item_name

    # ------------------------------------------------------------------
    # Budgets and per-camera algorithm choice
    # ------------------------------------------------------------------
    def frame_budget(self, camera_id: str) -> float:
        """Per-frame energy budget ``B_j`` from the residual battery."""
        state = self.camera(camera_id)
        return state.battery.budget_for(
            self.config.operation_time_s, self.config.seconds_per_frame
        )

    def camera_plan(
        self, camera_id: str, budget_override: float | None = None
    ) -> CameraPlan | None:
        """The selector input for one camera; ``None`` when the camera
        has no matched item or no affordable algorithm."""
        state = self.camera(camera_id)
        if state.matched_item is None:
            return None
        item = self.library.get(state.matched_item)
        budget = (
            budget_override
            if budget_override is not None
            else self.frame_budget(camera_id)
        )
        comm = state.communication_model.per_frame_cost()
        best = best_affordable(item, budget, comm)
        if best is None:
            return None
        return CameraPlan(
            camera_id=camera_id,
            item=item,
            best_algorithm=best.algorithm,
            budget=budget,
            communication_cost=comm,
        )

    def calibrate_probabilities(
        self, camera_id: str, detections: list[Detection]
    ) -> list[Detection]:
        """Fill each detection's probability from the matched item's
        per-algorithm score calibrator (footnote 5 of the paper)."""
        self.calibrate_batch([(camera_id, detections)])
        return detections

    def calibrate_batch(
        self, batch: Iterable[tuple[str, list[Detection]]]
    ) -> None:
        """:meth:`calibrate_probabilities` for many (camera,
        detections) pairs at once.

        Each detection takes the weight and bias of its camera's
        matched item's calibrator for its algorithm; detections whose
        calibrator is unfitted keep their NaN probability.  Scores are
        calibrated in elementwise passes of about
        :data:`CALIBRATION_PASS` detections — enough to amortise
        numpy's per-call cost, few enough that a pass's temporaries
        stay small — applying exactly the elementwise ops of
        :meth:`~repro.detection.scores.ScoreCalibrator.__call__`, so
        probabilities are bit-identical to per-detection calibration.
        """
        targets: list[Detection] = []
        weights: list[float] = []
        biases: list[float] = []
        for camera_id, detections in batch:
            state = self.camera(camera_id)
            if state.matched_item is None:
                raise RuntimeError(
                    f"camera {camera_id!r} has no matched training item"
                )
            item = self.library.get(state.matched_item)
            for det in detections:
                calibrator = item.profile(det.algorithm).calibrator
                if calibrator.is_fitted:
                    targets.append(det)
                    weights.append(calibrator.weight)
                    biases.append(calibrator.bias)
            if len(targets) >= CALIBRATION_PASS:
                _fill_probabilities(targets, weights, biases)
                targets, weights, biases = [], [], []
        _fill_probabilities(targets, weights, biases)

    # ------------------------------------------------------------------
    # Selection (Sections IV-B.3 and IV-B.4)
    # ------------------------------------------------------------------
    def select(
        self,
        assessment: AssessmentData,
        enable_subset: bool = True,
        enable_downgrade: bool = True,
        budget_overrides: dict[str, float] | None = None,
    ) -> SelectionDecision:
        """Run the full selection pipeline on assessment metadata.

        Args:
            assessment: Metadata from the just-finished assessment
                period (all cameras x all affordable algorithms).
            enable_subset: Disable to keep every camera active (the
                paper's all-best baseline).
            enable_downgrade: Disable to stop after subset selection
                (the middle bars of Fig. 5).
            budget_overrides: Optional per-camera budget values
                (the paper's Figs. 5a/5b sweep these).
        """
        overrides = budget_overrides or {}
        plans = []
        for camera_id in self.camera_ids:
            state = self._cameras[camera_id]
            if not state.alive or state.mode == CAMERA_QUARANTINED:
                continue
            plan = self.camera_plan(camera_id, overrides.get(camera_id))
            if plan is None:
                continue
            # Restrict the best-algorithm choice to algorithms that
            # actually have assessment metadata for this camera; a
            # profile without data cannot be evaluated or deployed.
            available = set(assessment.algorithms_for(camera_id))
            candidates = [
                p
                for p in plan.item.profiles.values()
                if p.algorithm in available
                and p.energy_per_frame + plan.communication_cost
                <= plan.budget
            ]
            if state.mode == CAMERA_DEGRADED:
                # A degraded camera is pinned to its cheapest affordable
                # profile: it still contributes coverage but stops
                # burning energy on detections its health says are
                # suspect.
                if not candidates:
                    continue
                cheapest = min(
                    candidates,
                    key=lambda p: (p.energy_per_frame, p.algorithm),
                )
                plan = CameraPlan(
                    camera_id=plan.camera_id,
                    item=plan.item,
                    best_algorithm=cheapest.algorithm,
                    budget=plan.budget,
                    communication_cost=plan.communication_cost,
                )
            elif plan.best_algorithm not in available:
                if not candidates:
                    continue
                plan = CameraPlan(
                    camera_id=plan.camera_id,
                    item=plan.item,
                    best_algorithm=max(
                        candidates, key=lambda p: p.f_score
                    ).algorithm,
                    budget=plan.budget,
                    communication_cost=plan.communication_cost,
                )
            plans.append(plan)
        if not plans:
            raise RuntimeError(
                "no camera has an affordable algorithm within budget"
            )

        all_best = {p.camera_id: p.best_algorithm for p in plans}
        baseline = self.engine.global_accuracy(assessment, all_best)
        desired = DesiredAccuracy.from_baseline(
            baseline, self.config.gamma_n, self.config.gamma_p
        )
        ranked = self.engine.rank_cameras(assessment, plans)

        if enable_subset:
            chosen, achieved = self.engine.greedy_subset(
                assessment, ranked, desired
            )
        else:
            chosen, achieved = ranked, baseline

        if enable_downgrade:
            assignment = self.engine.downgrade(assessment, chosen, desired)
            achieved = self.engine.global_accuracy(assessment, assignment)
        else:
            assignment = {p.camera_id: p.best_algorithm for p in chosen}
        # The grouping greedy left for downgrade is spent; the
        # assessment itself lives on through the operation phase.
        assessment.regrouping = None

        decision = SelectionDecision(
            assignment=assignment,
            baseline=baseline,
            desired=desired,
            achieved=achieved,
            ranked_camera_ids=[p.camera_id for p in ranked],
        )
        if self.telemetry is not None:
            best_by_camera = {p.camera_id: p.best_algorithm for p in plans}
            self._record_decision(decision, best_by_camera)
        return decision

    def _record_decision(
        self,
        decision: SelectionDecision,
        best_by_camera: dict[str, str],
    ) -> None:
        """Mirror one selection outcome into metrics and events."""
        telemetry = self.telemetry
        registry = telemetry.registry
        registry.counter(
            "controller_selections_total",
            "Selection rounds the controller has run.",
        ).inc()
        registry.gauge(
            "controller_cameras_selected",
            "Cameras activated by the latest selection.",
        ).set(decision.num_active)
        assignments = registry.counter(
            "controller_assignments_total",
            "Camera-algorithm assignments issued, by algorithm.",
            labels=("algorithm",),
        )
        downgrades = 0
        for camera_id, algorithm in decision.assignment.items():
            assignments.inc(algorithm=algorithm)
            if best_by_camera.get(camera_id, algorithm) != algorithm:
                downgrades += 1
        registry.counter(
            "controller_downgrades_total",
            "Cameras assigned a cheaper algorithm than their best.",
        ).inc(downgrades)
        accuracy = registry.gauge(
            "controller_accuracy",
            "Latest selection's accuracy proxies: all-best baseline, "
            "gamma-scaled desired floor, and predicted achieved.",
            labels=("quantity",),
        )
        accuracy.set(decision.baseline.num_objects, quantity="baseline_objects")
        accuracy.set(
            decision.baseline.mean_probability,
            quantity="baseline_probability",
        )
        accuracy.set(decision.desired.min_objects, quantity="desired_objects")
        accuracy.set(
            decision.desired.min_probability, quantity="desired_probability"
        )
        accuracy.set(decision.achieved.num_objects, quantity="achieved_objects")
        accuracy.set(
            decision.achieved.mean_probability,
            quantity="achieved_probability",
        )
        telemetry.event(
            "controller_decision",
            time_s=self.now_fn(),
            node_id="controller",
            assignment=dict(decision.assignment),
            num_active=decision.num_active,
            downgrades=downgrades,
            ranked=list(decision.ranked_camera_ids),
            baseline_objects=decision.baseline.num_objects,
            baseline_probability=decision.baseline.mean_probability,
            desired_objects=decision.desired.min_objects,
            desired_probability=decision.desired.min_probability,
            achieved_objects=decision.achieved.num_objects,
            achieved_probability=decision.achieved.mean_probability,
        )
