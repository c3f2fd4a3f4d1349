"""Integration tests for the deployment engine (shares the session
engine fixture to amortise offline training)."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import make_dataset
from repro.engine.context import offline_train_camera
from repro.detection.detectors import ALGORITHM_NAMES, make_detector
from repro.energy.model import ProcessingEnergyModel

#: Ceiling on the tracemalloc peak (MB) of profiling HOG on one
#: dataset-2 camera's rendered training segment.  Training that kept
#: every Detection of the segment for the threshold sweep peaked at
#: 10.0 MB; reading the detector's column draw, it peaks at 1.3 MB.
TRAINING_PEAK_CEILING_MB = 4.0


class TestOfflineTraining:
    def test_library_covers_all_cameras(self, runner1, dataset1):
        for camera_id in dataset1.camera_ids:
            item = runner1.library.get(f"T-{camera_id}")
            assert set(item.profiles) == set(ALGORITHM_NAMES)

    def test_profiles_have_energy_from_model(self, runner1, dataset1):
        item = runner1.library.get(f"T-{dataset1.camera_ids[0]}")
        assert item.profile("HOG").energy_per_frame == pytest.approx(
            1.08, rel=0.02
        )

    def test_hog_beats_acf_on_lab(self, runner1, dataset1):
        """Dataset #1's deployable ranking: HOG above ACF (Table II)."""
        item = runner1.library.get(f"T-{dataset1.camera_ids[0]}")
        assert item.profile("HOG").f_score > item.profile("ACF").f_score


def test_dataset2_camera_training_peak_memory():
    """Offline training holds arrays per frame, not Detection objects
    per candidate: the traced peak of profiling one algorithm on one
    dataset-2 camera stays under ``TRAINING_PEAK_CEILING_MB``.

    Training holds one (camera, algorithm) segment at a time, so one
    segment reaches the peak of the whole build, which profiles 16.
    """
    dataset = make_dataset(2)
    dataset.training_segment()  # render the frames before tracing
    env = dataset.environment
    detectors = {"HOG": make_detector("HOG", env)}
    energy_model = ProcessingEnergyModel(width=env.width, height=env.height)
    tracemalloc.start()
    try:
        offline_train_camera(
            dataset,
            dataset.camera_ids[0],
            detectors,
            energy_model,
            np.random.default_rng(2019),
        )
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < TRAINING_PEAK_CEILING_MB, (
        f"training HOG on {dataset.camera_ids[0]} peaked at "
        f"{peak_mb:.2f} MB (ceiling {TRAINING_PEAK_CEILING_MB} MB)"
    )


class TestRunModes:
    @pytest.fixture(scope="class")
    def results(self, runner1):
        return {
            mode: runner1.run(mode, budget=2.0, start=1000, end=2000)
            for mode in ("all_best", "subset", "full")
        }

    def test_modes_consume_decreasing_energy(self, results):
        assert (
            results["full"].energy_joules
            < results["all_best"].energy_joules
        )

    def test_accuracy_retention_bound(self, results):
        """EECS keeps >= 75% of the baseline's detections (the paper's
        slack is gamma_n = 0.85 on the proxy metric)."""
        baseline = results["all_best"].humans_detected
        assert results["full"].humans_detected >= 0.75 * baseline

    def test_decisions_recorded_for_eecs_modes(self, results):
        assert results["all_best"].decisions == []
        assert len(results["full"].decisions) >= 1

    def test_energy_by_camera_sums_to_total(self, results):
        result = results["full"]
        assert sum(result.energy_by_camera.values()) == pytest.approx(
            result.energy_joules
        )

    def test_processing_plus_communication(self, results):
        result = results["all_best"]
        assert (
            result.processing_joules + result.communication_joules
            == pytest.approx(result.energy_joules)
        )

    def test_detection_rate_bounds(self, results):
        for result in results.values():
            assert 0.0 <= result.detection_rate <= 1.0

    def test_frames_evaluated(self, results):
        # Frames 1000..2000 with ground truth every 25 -> 40 frames.
        assert results["all_best"].frames_evaluated == 40


class TestFixedMode:
    def test_fixed_assignment_runs(self, runner1, dataset1):
        c1, c2 = dataset1.camera_ids[:2]
        result = runner1.run(
            "fixed",
            assignment={c1: "HOG", c2: "ACF"},
            start=1000,
            end=1500,
        )
        assert result.humans_detected > 0
        assert set(result.energy_by_camera) == {c1, c2}

    def test_fixed_needs_assignment(self, runner1):
        with pytest.raises(ValueError):
            runner1.run("fixed")

    def test_unknown_mode_rejected(self, runner1):
        with pytest.raises(ValueError):
            runner1.run("warp")

    def test_more_cameras_detect_more(self, runner1, dataset1):
        cams = dataset1.camera_ids
        two = runner1.run(
            "fixed",
            assignment={c: "HOG" for c in cams[:2]},
            start=1000,
            end=1600,
        )
        four = runner1.run(
            "fixed",
            assignment={c: "HOG" for c in cams},
            start=1000,
            end=1600,
        )
        assert four.humans_detected >= two.humans_detected
        assert four.energy_joules > two.energy_joules


class TestLowBudget:
    def test_only_acf_affordable(self, runner1):
        """Fig. 5b regime: with budget 0.5 only ACF runs."""
        result = runner1.run("full", budget=0.5, start=1000, end=2000)
        for decision in result.decisions:
            assert set(decision.assignment.values()) == {"ACF"}
