"""Tests for latency accounting and the night-environment extension."""

import pytest

from repro.datasets.synthetic import DATASET_SPECS, make_dataset
from repro.detection.profiles import get_profile
from repro.world.environment import NIGHT


class TestLatencyAccounting:
    def test_processing_seconds_accumulate(self, runner1):
        result = runner1.run(
            "fixed",
            assignment={runner1.dataset.camera_ids[0]: "HOG"},
            start=1000,
            end=1500,
        )
        # 20 GT frames x 1.5 s/frame (HOG at 360x288).
        assert result.processing_seconds == pytest.approx(
            result.frames_evaluated * 1.5, rel=0.05
        )

    def test_latency_scales_with_algorithm(self, runner1):
        cam = runner1.dataset.camera_ids[0]
        hog = runner1.run(
            "fixed", assignment={cam: "HOG"}, start=1000, end=1500
        )
        acf = runner1.run(
            "fixed", assignment={cam: "ACF"}, start=1000, end=1500
        )
        assert acf.processing_seconds < hog.processing_seconds

    def test_lsvm_misses_realtime_cadence(self, runner1):
        """LSVM at 6.4 s/frame cannot sustain the paper's one frame
        per 2 s cadence — the stated reason it is excluded."""
        cam = runner1.dataset.camera_ids[0]
        result = runner1.run(
            "fixed", assignment={cam: "LSVM"}, start=1000, end=1500
        )
        assert result.max_latency_per_frame() > (
            runner1.config.seconds_per_frame
        )

    def test_hog_meets_realtime_cadence(self, runner1):
        cam = runner1.dataset.camera_ids[0]
        result = runner1.run(
            "fixed", assignment={cam: "HOG"}, start=1000, end=1500
        )
        assert result.max_latency_per_frame() <= (
            runner1.config.seconds_per_frame
        )

    def test_empty_run_zero_latency(self, runner1):
        result = runner1.run(
            "fixed",
            assignment={runner1.dataset.camera_ids[0]: "ACF"},
            start=1001,
            end=1002,  # no ground-truth frames in this span
        )
        assert result.processing_seconds == 0.0
        assert result.max_latency_per_frame() == 0.0


class TestNightEnvironment:
    def test_dataset4_registered(self):
        assert 4 in DATASET_SPECS
        assert DATASET_SPECS[4].environment is NIGHT

    def test_night_profiles_exist(self):
        for algorithm in ("HOG", "ACF", "C4", "LSVM"):
            profile = get_profile(algorithm, "night")
            assert profile.family == "night"

    def test_lsvm_wins_at_night(self):
        def f_score(profile):
            return (
                2 * profile.recall * profile.precision
                / (profile.recall + profile.precision)
            )

        f_scores = {
            a: f_score(get_profile(a, "night"))
            for a in ("HOG", "ACF", "C4", "LSVM")
        }
        assert max(f_scores, key=f_scores.get) == "LSVM"

    def test_night_darker_than_terrace(self):
        from repro.world.environment import TERRACE

        assert NIGHT.brightness < TERRACE.brightness
        assert NIGHT.contrast < TERRACE.contrast

    def test_night_dataset_generates(self):
        dataset = make_dataset(4)
        records = dataset.frames(0, 50, only_ground_truth=True)
        assert len(records) == 2
        obs = records[0].observation(dataset.camera_ids[0])
        # Dark scene: the rendered canvas is dim on average.
        assert obs.image.mean() < 0.45
