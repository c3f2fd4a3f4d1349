"""Tests for the EECS controller."""

import numpy as np
import pytest

from repro.core.calibration import TrainingItem, TrainingLibrary
from repro.core.config import EECSConfig
from repro.core.controller import CALIBRATION_PASS, EECSController
from repro.core.selection import AssessmentData
from repro.detection.base import BoundingBox, Detection
from repro.detection.scores import ScoreCalibrator
from repro.energy.battery import Battery
from repro.energy.communication import CommunicationEnergyModel
from repro.energy.model import ProcessingEnergyModel
from repro.geometry.homography import Homography
from repro.reid.matcher import CrossCameraMatcher
from tests.test_core_calibration import make_profile
from tests.test_core_selection import build_assessment

CAMERAS = ["c1", "c2"]


def fitted_calibrator():
    cal = ScoreCalibrator()
    scores = np.concatenate([
        np.random.default_rng(0).normal(1.0, 0.3, 100),
        np.random.default_rng(1).normal(-1.0, 0.3, 100),
    ])
    labels = np.concatenate([np.ones(100), np.zeros(100)])
    return cal.fit(scores, labels)


def library_with(cameras=CAMERAS):
    library = TrainingLibrary()
    for camera in cameras:
        profiles = {
            "GOOD": make_profile("GOOD", f=0.8, energy=1.0),
            "CHEAP": make_profile("CHEAP", f=0.6, energy=0.1),
        }
        for p in profiles.values():
            p.calibrator = fitted_calibrator()
        library.add(TrainingItem(name=f"T-{camera}", profiles=profiles))
    return library


@pytest.fixture()
def controller():
    matcher = CrossCameraMatcher(
        {c: Homography(np.eye(3)) for c in CAMERAS},
        ground_radius=10.0,
        use_color=False,
    )
    ctrl = EECSController(EECSConfig(), library_with(), matcher)
    for camera in CAMERAS:
        ctrl.register_camera(
            camera,
            processing_model=ProcessingEnergyModel(width=360, height=288),
            communication_model=CommunicationEnergyModel(
                width=360, height=288
            ),
            battery=Battery(capacity_joules=10800.0),
        )
        ctrl.assign_training_item(camera, f"T-{camera}")
    return ctrl


class TestRegistration:
    def test_duplicate_camera_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.register_camera(
                "c1",
                ProcessingEnergyModel(width=10, height=10),
                CommunicationEnergyModel(width=10, height=10),
                Battery(),
            )

    def test_unknown_camera_raises(self, controller):
        with pytest.raises(KeyError):
            controller.camera("c9")

    def test_assign_unknown_item_raises(self, controller):
        with pytest.raises(KeyError):
            controller.assign_training_item("c1", "missing")


class TestBudgets:
    def test_frame_budget_follows_battery(self, controller):
        # 10800 J over 6 h at one frame per 2 s -> 1 J/frame.
        assert controller.frame_budget("c1") == pytest.approx(1.0)

    def test_camera_plan_respects_budget(self, controller):
        plan = controller.camera_plan("c1", budget_override=0.5)
        assert plan.best_algorithm == "CHEAP"
        plan = controller.camera_plan("c1", budget_override=5.0)
        assert plan.best_algorithm == "GOOD"

    def test_plan_none_when_nothing_affordable(self, controller):
        assert controller.camera_plan("c1", budget_override=0.01) is None

    def test_plan_none_without_matched_item(self, controller):
        controller.camera("c1").matched_item = None
        assert controller.camera_plan("c1") is None


class TestCalibrateProbabilities:
    def test_fills_probabilities(self, controller):
        det = Detection(
            bbox=BoundingBox(0, 0, 10, 20),
            score=1.2,
            camera_id="c1",
            frame_index=0,
            algorithm="GOOD",
        )
        controller.calibrate_probabilities("c1", [det])
        assert 0.0 <= det.probability <= 1.0
        assert det.probability > 0.5  # high score -> high probability

    def test_batch_matches_scalar_calibrator_bit_for_bit(self, controller):
        """One batched pass equals ``ScoreCalibrator.__call__`` per
        detection, across cameras, mixed algorithms, clipped logits,
        unfitted calibrators (NaN stays) and empty lists; the batch is
        large enough to span several elementwise passes."""
        controller.library.get("T-c2").profile("CHEAP").calibrator = (
            ScoreCalibrator()
        )
        rng = np.random.default_rng(3)
        batch = []
        for index in range(2 * CALIBRATION_PASS // 25 + 3):
            camera = CAMERAS[index % 2]
            scores = rng.normal(0.0, 2.0, size=int(rng.integers(0, 101)))
            if index == 1:
                scores = np.array([-400.0, -15.0, 0.0, 15.0, 400.0])
            if index == 2:
                scores = np.empty(0)
            batch.append((
                camera,
                [
                    Detection(
                        bbox=BoundingBox(0, 0, 10, 20),
                        score=float(score),
                        camera_id=camera,
                        frame_index=index,
                        algorithm=("GOOD", "CHEAP")[int(rng.integers(2))],
                    )
                    for score in scores
                ],
            ))
        assert any(not dets for _, dets in batch)
        assert sum(len(dets) for _, dets in batch) > 2 * CALIBRATION_PASS
        controller.calibrate_batch(iter(batch))
        unfitted = 0
        for camera, detections in batch:
            item = controller.library.get(f"T-{camera}")
            for det in detections:
                calibrator = item.profile(det.algorithm).calibrator
                if calibrator.is_fitted:
                    assert type(det.probability) is float
                    assert det.probability == calibrator(det.score)
                else:
                    assert np.isnan(det.probability)
                    unfitted += 1
        assert unfitted > 0

    def test_batch_without_matched_item_raises(self, controller):
        controller.camera("c1").matched_item = None
        with pytest.raises(RuntimeError):
            controller.calibrate_batch([("c1", [])])


class TestSelect:
    def _assessment(self):
        return build_assessment({
            "c1": {
                "GOOD": [(1, 0.9), (2, 0.9), (3, 0.9)],
                "CHEAP": [(1, 0.8), (2, 0.8), (3, 0.8)],
            },
            "c2": {
                "GOOD": [(1, 0.9)],
                "CHEAP": [(1, 0.8)],
            },
        })

    def test_full_pipeline(self, controller):
        decision = controller.select(self._assessment())
        assert decision.assignment  # non-empty
        assert decision.baseline.num_objects >= 3
        assert decision.achieved.meets(decision.desired)

    def test_subset_drops_redundant_camera(self, controller):
        decision = controller.select(
            self._assessment(), enable_downgrade=False
        )
        # c1 alone meets 85% of the baseline object count.
        assert list(decision.assignment) == ["c1"]

    def test_downgrade_switches_to_cheap(self, controller):
        decision = controller.select(self._assessment())
        assert decision.assignment["c1"] == "CHEAP"

    def test_no_subset_keeps_all(self, controller):
        decision = controller.select(
            self._assessment(),
            enable_subset=False,
            enable_downgrade=False,
        )
        assert set(decision.assignment) == {"c1", "c2"}

    def test_budget_override_forces_cheap(self, controller):
        decision = controller.select(
            self._assessment(),
            budget_overrides={"c1": 0.5, "c2": 0.5},
        )
        assert all(a == "CHEAP" for a in decision.assignment.values())

    def test_assessment_without_best_algorithm_falls_back(self, controller):
        """A camera whose budget-best algorithm has no assessment data
        falls back to the best assessed one."""
        assessment = build_assessment({
            "c1": {"CHEAP": [(1, 0.8), (2, 0.8)]},
            "c2": {"CHEAP": [(3, 0.8)]},
        })
        decision = controller.select(assessment)
        assert all(a == "CHEAP" for a in decision.assignment.values())

    def test_infeasible_budget_raises(self, controller):
        with pytest.raises(RuntimeError):
            controller.select(
                self._assessment(),
                budget_overrides={"c1": 0.001, "c2": 0.001},
            )

    def test_receive_features_requires_comparator(self, controller):
        with pytest.raises(RuntimeError):
            controller.receive_features("c1", np.zeros((5, 10)))
