"""Tests for offline training: profiles and the training library."""

import numpy as np
import pytest

from repro.core.calibration import (
    AlgorithmProfile,
    TrainingItem,
    TrainingLibrary,
    profile_algorithm,
    score_frames,
)
from repro.detection.detectors import make_detector
from repro.detection.scores import ScoreCalibrator
from repro.energy.model import ProcessingEnergyModel
from repro.world.environment import LAB
from repro.world.renderer import Renderer
from repro.world.scene import Scene, make_camera_ring


def make_profile(algorithm="HOG", f=0.7, energy=1.0, item="T1"):
    return AlgorithmProfile(
        algorithm=algorithm,
        training_item=item,
        threshold=0.5,
        precision=f,
        recall=f,
        f_score=f,
        energy_per_frame=energy,
        time_per_frame=1.0,
    )


class TestAlgorithmProfile:
    def test_efficiency(self):
        profile = make_profile(f=0.8, energy=2.0)
        assert profile.efficiency == pytest.approx(0.4)

    def test_zero_energy_is_infinite_efficiency(self):
        assert make_profile(energy=0.0).efficiency == float("inf")


class TestProfileAlgorithm:
    @pytest.fixture(scope="class")
    def frames(self):
        scene = Scene(LAB, num_people=6, seed=9)
        camera = make_camera_ring(LAB, num_cameras=1)[0]
        renderer = Renderer(scene, camera)
        detector = make_detector("HOG", LAB)
        observations = []
        for i in range(150):
            scene.step()
            if i % 10 == 0:
                observations.append(renderer.render())
        return score_frames(
            detector, observations, np.random.default_rng(4)
        )

    def test_builds_complete_profile(self, frames):
        detector = make_detector("HOG", LAB)
        model = ProcessingEnergyModel(width=360, height=288)
        profile = profile_algorithm(detector, frames, "T1", model)
        assert profile.algorithm == "HOG"
        assert profile.training_item == "T1"
        assert 0.0 <= profile.precision <= 1.0
        assert 0.0 <= profile.recall <= 1.0
        assert profile.energy_per_frame == pytest.approx(1.08, rel=0.02)
        assert profile.calibrator.is_fitted

    def test_calibrator_separates_scores(self, frames):
        detector = make_detector("HOG", LAB)
        model = ProcessingEnergyModel(width=360, height=288)
        profile = profile_algorithm(detector, frames, "T1", model)
        high = profile.calibrator(profile.threshold + 1.0)
        low = profile.calibrator(profile.threshold - 2.0)
        assert high > low


class TestTrainingItem:
    def test_ranked_by_f_score(self):
        item = TrainingItem(
            name="T1",
            profiles={
                "HOG": make_profile("HOG", f=0.66),
                "ACF": make_profile("ACF", f=0.50),
                "LSVM": make_profile("LSVM", f=0.89),
            },
        )
        ranked = item.ranked()
        assert [p.algorithm for p in ranked] == ["LSVM", "HOG", "ACF"]

    def test_rejects_empty_profiles(self):
        with pytest.raises(ValueError):
            TrainingItem(name="T1", profiles={})

    def test_rejects_mismatched_key(self):
        with pytest.raises(ValueError):
            TrainingItem(
                name="T1", profiles={"HOG": make_profile("ACF")}
            )

    def test_unknown_algorithm_raises(self):
        item = TrainingItem(
            name="T1", profiles={"HOG": make_profile("HOG")}
        )
        with pytest.raises(KeyError):
            item.profile("ACF")


class TestTrainingLibrary:
    def _item(self, name):
        return TrainingItem(
            name=name, profiles={"HOG": make_profile("HOG", item=name)}
        )

    def test_add_and_get(self):
        library = TrainingLibrary()
        library.add(self._item("T1"))
        assert library.get("T1").name == "T1"
        assert "T1" in library
        assert len(library) == 1

    def test_duplicate_rejected(self):
        library = TrainingLibrary()
        library.add(self._item("T1"))
        with pytest.raises(ValueError):
            library.add(self._item("T1"))

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            TrainingLibrary().get("nope")
