"""Tests for the calibrated simulated detectors."""

import dataclasses

import numpy as np
import pytest

from repro.core.calibration import score_frames
from repro.detection.detectors import (
    ALGORITHM_NAMES,
    make_detector,
    make_detector_suite,
)
from repro.detection.metrics import precision_recall
from repro.detection.profiles import get_profile
from repro.world.environment import CHAP, LAB
from repro.world.renderer import Renderer
from repro.world.scene import Scene, make_camera_ring


@pytest.fixture(scope="module")
def lab_frames():
    scene = Scene(LAB, num_people=6, seed=5)
    camera = make_camera_ring(LAB, num_cameras=1)[0]
    renderer = Renderer(scene, camera)
    frames = []
    for i in range(200):
        scene.step()
        if i % 10 == 0:
            frames.append(renderer.render())
    return frames


class TestDetectorConstruction:
    def test_suite_has_all_algorithms(self):
        suite = make_detector_suite(LAB)
        assert set(suite) == set(ALGORITHM_NAMES)

    def test_tp_mean_above_threshold_minus_sigma(self):
        """The clean-object response sits near the threshold region."""
        det = make_detector("LSVM", LAB)
        profile = get_profile("LSVM", LAB.family)
        assert det._tp_mu > profile.threshold

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            make_detector("YOLO", LAB)


class TestDetectorBehaviour:
    def test_detections_carry_camera_and_frame(self, lab_frames, rng):
        det = make_detector("HOG", LAB)
        out = det.detect(lab_frames[0], rng)
        for d in out:
            assert d.camera_id == lab_frames[0].camera_id
            assert d.frame_index == lab_frames[0].frame_index
            assert d.algorithm == "HOG"

    def test_threshold_filters(self, lab_frames, rng):
        det = make_detector("HOG", LAB)
        all_dets = det.detect(lab_frames[0], np.random.default_rng(1))
        cut = det.detect(
            lab_frames[0], np.random.default_rng(1), threshold=0.5
        )
        assert len(cut) <= len(all_dets)
        assert all(d.score >= 0.5 for d in cut)

    def test_sorted_by_score(self, lab_frames, rng):
        det = make_detector("ACF", LAB)
        out = det.detect(lab_frames[0], rng)
        scores = [d.score for d in out]
        assert scores == sorted(scores, reverse=True)

    def test_occlusion_lowers_score(self, rng):
        det = make_detector("HOG", LAB)
        from repro.world.renderer import ObjectView

        base = dict(
            person_id=0, bbox=(10, 10, 30, 90), pixel_height=90,
            contrast=0.8, distance=5.0, shade=0.4, ground_xy=(1, 1),
        )
        clear = ObjectView(occlusion=0.0, **base)
        hidden = ObjectView(occlusion=0.9, **base)
        clear_scores = [
            det.score_view(clear, np.random.default_rng(s)) for s in range(50)
        ]
        hidden_scores = [
            det.score_view(hidden, np.random.default_rng(s)) for s in range(50)
        ]
        assert np.mean(clear_scores) > np.mean(hidden_scores)

    def test_operating_point_near_profile(self, lab_frames):
        """At the profile threshold, measured P/R sit near targets."""
        rng = np.random.default_rng(3)
        for algorithm in ("HOG", "LSVM"):
            det = make_detector(algorithm, LAB)
            profile = det.profile
            frames = score_frames(det, lab_frames, rng)
            counts = precision_recall(frames, profile.threshold)
            assert counts.recall == pytest.approx(profile.recall, abs=0.15)
            assert counts.precision == pytest.approx(
                profile.precision, abs=0.15
            )

    def test_cluttered_scene_has_more_false_positives(self, rng):
        lab_det = make_detector("HOG", LAB)
        chap_det = make_detector("HOG", CHAP)
        assert chap_det._conf_count > lab_det._conf_count

    def test_false_positives_have_no_truth_id(self, lab_frames, rng):
        det = make_detector("HOG", LAB)
        out = det.detect(lab_frames[0], rng)
        truth_ids = {v.person_id for v in lab_frames[0].objects}
        for d in out:
            if d.truth_id is not None:
                assert d.truth_id in truth_ids


class TestProfiles:
    def test_all_combinations_registered(self):
        for algorithm in ALGORITHM_NAMES:
            for family in ("indoor_clean", "indoor_cluttered", "outdoor"):
                profile = get_profile(algorithm, family)
                assert profile.algorithm == algorithm
                assert profile.family == family

    def test_unknown_combination_raises(self):
        with pytest.raises(KeyError):
            get_profile("HOG", "lunar")

    @pytest.mark.parametrize("recall", [1.0, 0.0, -0.1, 1.5])
    def test_recall_outside_open_unit_interval_is_refused(self, recall):
        """A recall of 1 would calibrate every true positive to an
        infinite score, so the profile refuses it at construction."""
        with pytest.raises(ValueError, match="recall"):
            dataclasses.replace(
                get_profile("HOG", "indoor_clean"), recall=recall
            )

    def test_paper_orderings(self):
        """Who wins where, per Tables II-III."""
        def f(alg, fam):
            p = get_profile(alg, fam)
            return 2 * p.recall * p.precision / (p.recall + p.precision)

        # Dataset #1: LSVM > HOG > C4 > ACF.
        assert f("LSVM", "indoor_clean") > f("HOG", "indoor_clean")
        assert f("HOG", "indoor_clean") > f("C4", "indoor_clean")
        assert f("C4", "indoor_clean") > f("ACF", "indoor_clean")
        # Dataset #2: ACF > LSVM > C4 > HOG.
        assert f("ACF", "indoor_cluttered") > f("LSVM", "indoor_cluttered")
        assert f("C4", "indoor_cluttered") > f("HOG", "indoor_cluttered")
