"""Vectorised k-means vs the reference per-centroid loop."""

import numpy as np

from repro.vision.kmeans import KMeans
from tests.loop_references import update_centroids_reference


class TestUpdateEquivalence:
    def test_single_update_matches_reference(self, rng):
        data = rng.normal(size=(2000, 16))
        km = KMeans(40)
        centroids = data[:40].copy()
        labels = km._assign(data, centroids)
        fast = km._update_centroids(data, labels, centroids)
        slow = update_centroids_reference(km.k, data, labels, centroids)
        np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)

    def test_empty_clusters_keep_centroid(self, rng):
        data = rng.normal(size=(30, 4))
        km = KMeans(8)
        centroids = rng.normal(size=(8, 4)) + 100.0  # far away: all empty
        centroids[0] = data.mean(axis=0)  # only cluster 0 gets members
        labels = km._assign(data, centroids)
        fast = km._update_centroids(data, labels, centroids)
        slow = update_centroids_reference(km.k, data, labels, centroids)
        np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)
        # Clusters without members are untouched.
        empty = np.setdiff1d(np.arange(8), np.unique(labels))
        assert len(empty) > 0
        np.testing.assert_array_equal(fast[empty], centroids[empty])

    def test_full_fit_matches_reference(self, rng):
        data = rng.normal(size=(1500, 8))
        fast = KMeans(20, rng=np.random.default_rng(3)).fit(data)
        slow = KMeans(20, rng=np.random.default_rng(3))
        slow._update_centroids = lambda data, labels, centroids: (
            update_centroids_reference(slow.k, data, labels, centroids)
        )
        slow.fit(data)
        assert fast.iterations_run == slow.iterations_run
        np.testing.assert_allclose(
            fast.centroids, slow.centroids, atol=1e-9, rtol=0
        )


class TestChunkedAssign:
    def test_chunked_and_unchunked_labels_agree(self, rng):
        data = rng.normal(size=(10_000, 12))
        km = KMeans(25, rng=np.random.default_rng(5)).fit(data[:3000])
        chunked = km._assign(data, km.centroids)  # default 4096 chunk
        unchunked = km._assign(data, km.centroids, chunk=len(data))
        np.testing.assert_array_equal(chunked, unchunked)

    def test_tiny_chunk_agrees(self, rng):
        data = rng.normal(size=(517, 6))
        km = KMeans(9, rng=np.random.default_rng(6)).fit(data)
        np.testing.assert_array_equal(
            km._assign(data, km.centroids, chunk=64),
            km._assign(data, km.centroids, chunk=len(data)),
        )

    def test_predict_single_point(self, rng):
        data = rng.normal(size=(200, 5))
        km = KMeans(4, rng=np.random.default_rng(8)).fit(data)
        label = km.predict(data[0])
        assert label.shape == (1,)
        assert 0 <= label[0] < 4
