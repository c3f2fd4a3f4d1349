"""Tests for the Kalman filter and ground-plane tracker."""

import numpy as np
import pytest

from repro.reid.fusion import ObjectGroup
from repro.tracking.kalman import KalmanFilter2D
from repro.tracking.tracker import GroundPlaneTracker


def position_variance(kf: KalmanFilter2D) -> float:
    """Trace of the filter's positional covariance block."""
    return float(np.trace(kf.covariance[:2, :2]))


class TestKalmanFilter:
    def test_stationary_object_converges(self):
        kf = KalmanFilter2D(np.array([1.0, 2.0]))
        for _ in range(20):
            kf.predict()
            kf.update(np.array([1.0, 2.0]))
        np.testing.assert_allclose(kf.position, [1.0, 2.0], atol=0.05)
        np.testing.assert_allclose(kf.state[2:], [0.0, 0.0], atol=0.05)

    def test_constant_velocity_estimated(self):
        kf = KalmanFilter2D(np.array([0.0, 0.0]), dt=1.0)
        for t in range(1, 25):
            kf.predict()
            kf.update(np.array([0.5 * t, -0.25 * t]))
        np.testing.assert_allclose(kf.state[2:], [0.5, -0.25], atol=0.05)

    def test_prediction_extrapolates(self):
        kf = KalmanFilter2D(np.array([0.0, 0.0]), dt=1.0)
        for t in range(1, 15):
            kf.predict()
            kf.update(np.array([1.0 * t, 0.0]))
        predicted = kf.predict()
        assert predicted[0] == pytest.approx(15.0, abs=0.5)

    def test_uncertainty_shrinks_with_updates(self):
        kf = KalmanFilter2D(np.array([0.0, 0.0]))
        kf.predict()
        before = position_variance(kf)
        kf.update(np.array([0.0, 0.0]))
        assert position_variance(kf) < before

    def test_uncertainty_grows_without_updates(self):
        kf = KalmanFilter2D(np.array([0.0, 0.0]))
        kf.predict()
        kf.update(np.array([0.0, 0.0]))
        after_update = position_variance(kf)
        for _ in range(5):
            kf.predict()
        assert position_variance(kf) > after_update

    def test_gating_distance_small_for_consistent(self):
        kf = KalmanFilter2D(np.array([3.0, 3.0]))
        kf.predict()
        assert kf.gating_distance(np.array([3.0, 3.0])) < 1.0
        assert kf.gating_distance(np.array([30.0, 30.0])) > 10.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            KalmanFilter2D(np.zeros(3))
        with pytest.raises(ValueError):
            KalmanFilter2D(np.zeros(2), dt=0)
        kf = KalmanFilter2D(np.zeros(2))
        with pytest.raises(ValueError):
            kf.update(np.zeros(3))


def group_at(x, y, truth_id=None):
    return ObjectGroup(detections=[], ground_point=(x, y)) if truth_id is None else _group_with_truth(x, y, truth_id)


def _group_with_truth(x, y, truth_id):
    from repro.detection.base import BoundingBox, Detection

    det = Detection(
        bbox=BoundingBox(0, 0, 1, 1),
        score=0.9,
        camera_id="c",
        frame_index=0,
        algorithm="HOG",
        probability=0.9,
        truth_id=truth_id,
    )
    return ObjectGroup(detections=[det], ground_point=(x, y))


class TestGroundPlaneTracker:
    def test_track_confirmed_after_hits(self):
        tracker = GroundPlaneTracker(confirm_hits=2)
        tracker.step([group_at(1.0, 1.0)])
        assert tracker.confirmed_tracks == []
        tracker.step([group_at(1.05, 1.0)])
        assert len(tracker.confirmed_tracks) == 1

    def test_two_objects_two_tracks(self):
        tracker = GroundPlaneTracker(confirm_hits=1)
        tracker.step([group_at(0.0, 0.0), group_at(5.0, 5.0)])
        tracker.step([group_at(0.1, 0.0), group_at(5.1, 5.0)])
        assert len(tracker.tracks) == 2

    def test_track_survives_missed_frames(self):
        tracker = GroundPlaneTracker(confirm_hits=1, max_misses=3)
        tracker.step([group_at(1.0, 1.0)])
        track_id = tracker.tracks[0].track_id
        tracker.step([])  # miss
        tracker.step([])  # miss
        tracker.step([group_at(1.1, 1.0)])
        assert any(t.track_id == track_id for t in tracker.tracks)

    def test_track_retired_after_too_many_misses(self):
        tracker = GroundPlaneTracker(confirm_hits=1, max_misses=1)
        tracker.step([group_at(1.0, 1.0)])
        tracker.step([])
        tracker.step([])
        assert tracker.tracks == []
        assert len(tracker.retired) == 1

    def test_moving_object_followed(self):
        tracker = GroundPlaneTracker(confirm_hits=1, gate=5.0)
        for t in range(10):
            tracker.step([group_at(0.3 * t, 0.0)])
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].hits == 10

    def test_distant_measurement_spawns_new_track(self):
        tracker = GroundPlaneTracker(confirm_hits=1, gate=2.0)
        tracker.step([group_at(0.0, 0.0)])
        tracker.step([group_at(50.0, 50.0)])
        assert len(tracker.tracks) == 2

    def test_truth_ids_recorded(self):
        tracker = GroundPlaneTracker(confirm_hits=1)
        tracker.step([group_at(1.0, 1.0, truth_id=7)])
        tracker.step([group_at(1.1, 1.0, truth_id=7)])
        assert tracker.tracked_truth_ids() == {7}
        assert tracker.tracks[0].majority_truth_id == 7

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GroundPlaneTracker(confirm_hits=0)
        with pytest.raises(ValueError):
            GroundPlaneTracker(max_misses=-1)

    def test_bridges_detection_gap(self):
        """The Section VII story: a person missed for two frames keeps
        their track, so track-level coverage exceeds frame-level."""
        tracker = GroundPlaneTracker(confirm_hits=1, max_misses=3, gate=5.0)
        positions = [(0.2 * t, 0.0) for t in range(12)]
        detected_frames = 0
        for t, (x, y) in enumerate(positions):
            if t in (4, 5):  # two missed frames
                tracker.step([])
            else:
                detected_frames += 1
                tracker.step([group_at(x, y, truth_id=1)])
        assert len(tracker.all_tracks_ever) == 1
        assert tracker.tracks[0].hits == detected_frames
