"""Tests for GFK video similarity (Eqs. 3-5) and the comparator."""

import numpy as np
import pytest

from repro.domain_adaptation.gfk import geodesic_flow_kernel
from repro.domain_adaptation.similarity import (
    VideoComparator,
    kernel_distance_matrix,
    mean_manifold_distance,
    video_similarity,
)
from tests.subspaces import orthonormalize


def make_video(rng, mean, k=12, alpha=40, spread=0.3):
    """Frame features around a shared 'background' mean."""
    return mean + spread * rng.normal(size=(k, alpha))


class TestKernelDistance:
    def _kernel(self, rng, alpha=20, beta=3):
        x = orthonormalize(rng.normal(size=(alpha, beta)))
        z = orthonormalize(rng.normal(size=(alpha, beta)))
        return geodesic_flow_kernel(x, z)

    def test_shape(self, rng):
        kernel = self._kernel(rng)
        t = rng.normal(size=(4, 20))
        v = rng.normal(size=(7, 20))
        assert kernel_distance_matrix(kernel, t, v).shape == (4, 7)

    def test_non_negative(self, rng):
        kernel = self._kernel(rng)
        t = rng.normal(size=(5, 20))
        v = rng.normal(size=(5, 20))
        assert kernel_distance_matrix(kernel, t, v).min() >= 0.0

    def test_zero_on_identical_frames(self, rng):
        kernel = self._kernel(rng)
        t = rng.normal(size=(3, 20))
        d = kernel_distance_matrix(kernel, t, t)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)

    def test_mean_distance_is_mean(self, rng):
        kernel = self._kernel(rng)
        t = rng.normal(size=(3, 20))
        v = rng.normal(size=(4, 20))
        assert mean_manifold_distance(kernel, t, v) == pytest.approx(
            kernel_distance_matrix(kernel, t, v).mean()
        )


class TestVideoSimilarity:
    def test_in_unit_interval(self, rng):
        a = make_video(rng, rng.normal(size=40))
        b = make_video(rng, rng.normal(size=40))
        sim = video_similarity(a, b, subspace_dim=4)
        assert 0.0 < sim <= 1.0

    def test_self_similarity_highest(self, rng):
        mean_a = rng.normal(size=40) * 3
        mean_b = rng.normal(size=40) * 3
        a1 = make_video(rng, mean_a)
        a2 = make_video(rng, mean_a)
        b = make_video(rng, mean_b)
        assert video_similarity(a1, a2, subspace_dim=4) > video_similarity(
            a1, b, subspace_dim=4
        )

    def test_symmetric(self, rng):
        a = make_video(rng, rng.normal(size=30), alpha=30)
        b = make_video(rng, rng.normal(size=30), alpha=30)
        s_ab = video_similarity(a, b, subspace_dim=4)
        s_ba = video_similarity(b, a, subspace_dim=4)
        assert s_ab == pytest.approx(s_ba, abs=1e-6)

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            video_similarity(
                rng.normal(size=(5, 10)), rng.normal(size=(5, 12))
            )

    def test_distance_scale_monotone(self, rng):
        a = make_video(rng, rng.normal(size=40))
        b = make_video(rng, rng.normal(size=40))
        s_small = video_similarity(a, b, subspace_dim=4, distance_scale=1.0)
        s_large = video_similarity(a, b, subspace_dim=4, distance_scale=20.0)
        assert s_large <= s_small


class TestVideoComparator:
    def test_best_match_finds_same_scene(self, rng):
        means = [rng.normal(size=50) * 3 for _ in range(3)]
        comparator = VideoComparator(subspace_dim=4)
        for i, mean in enumerate(means):
            comparator.add_training_video(
                f"T{i}", make_video(rng, mean, alpha=50)
            )
        incoming = make_video(rng, means[1], alpha=50)
        name, similarity = comparator.best_match(incoming)
        assert name == "T1"
        assert 0.0 < similarity <= 1.0

    def test_similarities_cover_all_items(self, rng):
        comparator = VideoComparator(subspace_dim=3)
        comparator.add_training_video("A", rng.normal(size=(8, 30)))
        comparator.add_training_video("B", rng.normal(size=(8, 30)))
        sims = comparator.similarities(rng.normal(size=(8, 30)))
        assert set(sims) == {"A", "B"}

    def test_duplicate_name_rejected(self, rng):
        comparator = VideoComparator()
        comparator.add_training_video("A", rng.normal(size=(5, 20)))
        with pytest.raises(ValueError):
            comparator.add_training_video("A", rng.normal(size=(5, 20)))

    def test_empty_library_raises(self, rng):
        with pytest.raises(RuntimeError):
            VideoComparator().similarities(rng.normal(size=(5, 20)))
