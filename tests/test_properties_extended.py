"""Additional property-based tests: k-means, tracker, energy model and
metric invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.model import processing_energy, processing_time
from repro.vision.kmeans import KMeans


class TestKMeansProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_labels_within_k(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(40, 3))
        k = int(rng.integers(1, 6))
        km = KMeans(k, rng=rng).fit(data)
        labels = km.predict(data)
        assert labels.min() >= 0
        assert labels.max() < k

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_assignment_is_nearest_centroid(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(30, 2))
        km = KMeans(3, rng=rng).fit(data)
        labels = km.predict(data)
        for point, label in zip(data, labels):
            dists = np.linalg.norm(km.centroids - point, axis=1)
            assert dists[label] == pytest.approx(dists.min())


class TestEnergyModelProperties:
    algorithms = st.sampled_from(["HOG", "ACF", "C4", "LSVM"])
    megapixels = st.floats(min_value=0.01, max_value=4.0)

    @given(algorithms, megapixels)
    def test_energy_positive(self, algorithm, mp):
        assert processing_energy(algorithm, mp) > 0

    @given(algorithms, megapixels, megapixels)
    def test_energy_monotone(self, algorithm, a, b):
        lo, hi = min(a, b), max(a, b)
        assert processing_energy(algorithm, lo) <= processing_energy(
            algorithm, hi
        ) + 1e-12

    @given(algorithms, megapixels)
    def test_time_positive(self, algorithm, mp):
        assert processing_time(algorithm, mp) > 0

    @given(megapixels)
    def test_acf_always_cheapest(self, mp):
        """ACF undercuts the others across the whole resolution range
        the paper spans — the property the downgrade step relies on."""
        acf = processing_energy("ACF", mp)
        for other in ("HOG", "C4", "LSVM"):
            assert acf < processing_energy(other, mp)


class TestTrackerProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-5, max_value=5),
                st.floats(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_track_count_bounded_by_measurements(self, path):
        from repro.reid.fusion import ObjectGroup
        from repro.tracking.tracker import GroundPlaneTracker

        tracker = GroundPlaneTracker(confirm_hits=1, max_misses=100)
        for (x, y) in path:
            tracker.step([ObjectGroup(detections=[], ground_point=(x, y))])
        # One measurement per frame can never create more live tracks
        # than frames, and at least one track exists.
        assert 1 <= len(tracker.tracks) <= len(path)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_empty_frames_spawn_nothing(self, frames):
        from repro.tracking.tracker import GroundPlaneTracker

        tracker = GroundPlaneTracker()
        for _ in range(frames):
            tracker.step([])
        assert tracker.tracks == []
        assert tracker.retired == []
