"""Tests for camera-subset selection and algorithm downgrade, on
hand-constructed assessment data with known structure."""

import numpy as np
import pytest

from repro.core.accuracy import DesiredAccuracy
from repro.core.calibration import TrainingItem
from repro.core.selection import (
    AssessmentData,
    CameraPlan,
    SelectionEngine,
)
from repro.detection.base import BoundingBox, Detection
from repro.geometry.homography import Homography
from repro.reid.matcher import CrossCameraMatcher
from tests.test_core_calibration import make_profile

CAMERAS = ["c1", "c2", "c3"]
# Three objects at distinct ground positions.
OBJECTS = {1: (100.0, 100.0), 2: (300.0, 100.0), 3: (100.0, 300.0)}


def detection(camera, obj_id, probability, algorithm):
    x, y = OBJECTS[obj_id]
    return Detection(
        bbox=BoundingBox(x - 5, y - 20, 10, 20),
        score=probability,
        camera_id=camera,
        frame_index=0,
        algorithm=algorithm,
        probability=probability,
        truth_id=obj_id,
    )


def build_assessment(per_camera):
    """per_camera: camera -> algorithm -> list of (obj_id, prob)."""
    frame = {}
    for camera, algorithms in per_camera.items():
        frame[camera] = {
            algorithm: [
                detection(camera, obj_id, prob, algorithm)
                for obj_id, prob in hits
            ]
            for algorithm, hits in algorithms.items()
        }
    return AssessmentData(frames=[frame])


def make_item(name):
    return TrainingItem(
        name=name,
        profiles={
            "GOOD": make_profile("GOOD", f=0.8, energy=1.0, item=name),
            "CHEAP": make_profile("CHEAP", f=0.6, energy=0.1, item=name),
        },
    )


def make_plans(cameras=CAMERAS, budget=5.0):
    return [
        CameraPlan(
            camera_id=c,
            item=make_item(f"T-{c}"),
            best_algorithm="GOOD",
            budget=budget,
        )
        for c in cameras
    ]


@pytest.fixture()
def engine():
    matcher = CrossCameraMatcher(
        {c: Homography(np.eye(3)) for c in CAMERAS},
        ground_radius=10.0,
        use_color=False,
    )
    return SelectionEngine(matcher)


class TestGlobalAccuracy:
    def test_fuses_across_cameras(self, engine):
        assessment = build_assessment({
            "c1": {"GOOD": [(1, 0.6)]},
            "c2": {"GOOD": [(1, 0.6)]},
        })
        acc = engine.global_accuracy(
            assessment, {"c1": "GOOD", "c2": "GOOD"}
        )
        assert acc.num_objects == 1
        assert acc.mean_probability == pytest.approx(1 - 0.4 * 0.4)

    def test_counts_union_of_objects(self, engine):
        assessment = build_assessment({
            "c1": {"GOOD": [(1, 0.9)]},
            "c2": {"GOOD": [(2, 0.9)]},
        })
        acc = engine.global_accuracy(
            assessment, {"c1": "GOOD", "c2": "GOOD"}
        )
        assert acc.num_objects == 2

    def test_assignment_selects_algorithm(self, engine):
        assessment = build_assessment({
            "c1": {"GOOD": [(1, 0.9), (2, 0.9)], "CHEAP": [(1, 0.5)]},
        })
        good = engine.global_accuracy(assessment, {"c1": "GOOD"})
        cheap = engine.global_accuracy(assessment, {"c1": "CHEAP"})
        assert good.num_objects == 2
        assert cheap.num_objects == 1


class TestRankCameras:
    def test_rank_by_expected_detections(self, engine):
        assessment = build_assessment({
            "c1": {"GOOD": [(1, 0.9)]},
            "c2": {"GOOD": [(1, 0.9), (2, 0.9), (3, 0.9)]},
            "c3": {"GOOD": [(1, 0.9), (2, 0.9)]},
        })
        ranked = engine.rank_cameras(assessment, make_plans())
        assert [p.camera_id for p in ranked] == ["c2", "c3", "c1"]


class TestGreedySubset:
    def test_stops_when_desired_met(self, engine):
        # c2 alone sees everything; the greedy should stop at one camera.
        assessment = build_assessment({
            "c1": {"GOOD": [(1, 0.9)]},
            "c2": {"GOOD": [(1, 0.95), (2, 0.95), (3, 0.95)]},
            "c3": {"GOOD": [(2, 0.9)]},
        })
        plans = make_plans()
        ranked = engine.rank_cameras(assessment, plans)
        desired = DesiredAccuracy(min_objects=3, min_probability=0.8)
        chosen, achieved = engine.greedy_subset(assessment, ranked, desired)
        assert [p.camera_id for p in chosen] == ["c2"]
        assert achieved.meets(desired)

    def test_adds_cameras_until_met(self, engine):
        assessment = build_assessment({
            "c1": {"GOOD": [(1, 0.9)]},
            "c2": {"GOOD": [(2, 0.9)]},
            "c3": {"GOOD": [(3, 0.9)]},
        })
        plans = make_plans()
        ranked = engine.rank_cameras(assessment, plans)
        desired = DesiredAccuracy(min_objects=3, min_probability=0.5)
        chosen, achieved = engine.greedy_subset(assessment, ranked, desired)
        assert len(chosen) == 3

    def test_returns_all_when_unreachable(self, engine):
        assessment = build_assessment({
            "c1": {"GOOD": [(1, 0.9)]},
            "c2": {"GOOD": [(1, 0.9)]},
            "c3": {"GOOD": [(1, 0.9)]},
        })
        plans = make_plans()
        ranked = engine.rank_cameras(assessment, plans)
        desired = DesiredAccuracy(min_objects=10, min_probability=0.5)
        chosen, achieved = engine.greedy_subset(assessment, ranked, desired)
        assert len(chosen) == 3
        assert not achieved.meets(desired)

    def test_empty_plans_raise(self, engine):
        with pytest.raises(ValueError):
            engine.greedy_subset(
                AssessmentData(frames=[{}]),
                [],
                DesiredAccuracy(1, 0.1),
            )


class TestDowngrade:
    def test_downgrades_when_accuracy_holds(self, engine):
        # CHEAP sees the same objects: downgrade should switch to it.
        assessment = build_assessment({
            "c1": {
                "GOOD": [(1, 0.9), (2, 0.9)],
                "CHEAP": [(1, 0.85), (2, 0.85)],
            },
        })
        plans = make_plans(["c1"])
        desired = DesiredAccuracy(min_objects=2, min_probability=0.5)
        assignment = engine.downgrade(assessment, plans, desired)
        assert assignment == {"c1": "CHEAP"}

    def test_keeps_good_when_cheap_misses(self, engine):
        assessment = build_assessment({
            "c1": {
                "GOOD": [(1, 0.9), (2, 0.9)],
                "CHEAP": [(1, 0.85)],  # misses object 2
            },
        })
        plans = make_plans(["c1"])
        desired = DesiredAccuracy(min_objects=2, min_probability=0.5)
        assignment = engine.downgrade(assessment, plans, desired)
        assert assignment == {"c1": "GOOD"}

    def test_reverse_order_downgrades_weakest_first(self, engine):
        """The least accurate camera is tried first; if its downgrade
        breaks the requirement, the pass stops without touching the
        stronger camera."""
        assessment = build_assessment({
            "c1": {
                "GOOD": [(1, 0.9), (2, 0.9), (3, 0.9)],
                "CHEAP": [(1, 0.8), (2, 0.8), (3, 0.8)],
            },
            "c2": {
                "GOOD": [(1, 0.9)],
                "CHEAP": [],
            },
        })
        plans = make_plans(["c1", "c2"])
        ranked = engine.rank_cameras(assessment, plans)
        desired = DesiredAccuracy(min_objects=3, min_probability=0.5)
        assignment = engine.downgrade(assessment, ranked, desired)
        # c2 (weaker) is tried first; CHEAP there loses its only object
        # but objects 1-3 still come from c1 -> accepted.  Then c1 must
        # keep at least the object count: CHEAP on c1 keeps all three.
        assert assignment["c2"] == "CHEAP" or assignment["c1"] == "GOOD"

    def test_stops_at_first_failure(self, engine):
        """Per Section IV-B.4 the pass stops at the first camera with
        no viable substitution."""
        assessment = build_assessment({
            "c1": {
                "GOOD": [(1, 0.9), (2, 0.9)],
                "CHEAP": [(1, 0.85), (2, 0.85)],
            },
            "c2": {
                "GOOD": [(3, 0.9)],
                "CHEAP": [],  # downgrade would lose object 3
            },
        })
        plans = make_plans(["c1", "c2"])
        ranked = engine.rank_cameras(assessment, plans)
        desired = DesiredAccuracy(min_objects=3, min_probability=0.5)
        assignment = engine.downgrade(assessment, ranked, desired)
        # c2 is weaker (1 object) so it is tried first and fails ->
        # the stronger c1 is never downgraded.
        assert assignment == {"c1": "GOOD", "c2": "GOOD"}
