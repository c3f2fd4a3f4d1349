"""Tests for k-means clustering and the bag-of-words representation."""

import numpy as np
import pytest

from repro.vision.bow import BagOfWords
from repro.vision.keypoints import DESCRIPTOR_DIM
from repro.vision.kmeans import KMeans


def three_clusters(rng, n=60):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    data = np.vstack(
        [c + rng.normal(scale=0.3, size=(n, 2)) for c in centers]
    )
    return data, centers


class TestKMeans:
    def test_recovers_separated_clusters(self, rng):
        data, centers = three_clusters(rng)
        km = KMeans(3, rng=rng).fit(data)
        recovered = km.centroids
        for c in centers:
            dists = np.linalg.norm(recovered - c, axis=1)
            assert dists.min() < 0.5

    def test_predict_assigns_nearest(self, rng):
        data, _ = three_clusters(rng)
        km = KMeans(3, rng=rng).fit(data)
        labels = km.predict(data)
        assert set(labels) == {0, 1, 2}
        # Points from the same generated blob get the same label.
        assert len(set(labels[:60])) == 1

    def test_inertia_decreases_with_more_clusters(self, rng):
        data, _ = three_clusters(rng)

        def inertia(km: KMeans) -> float:
            # Sum of squared distances to the assigned centres.
            return float(np.sum((data - km.centroids[km.predict(data)]) ** 2))

        inertia1 = inertia(KMeans(1, rng=rng).fit(data))
        inertia3 = inertia(KMeans(3, rng=rng).fit(data))
        assert inertia3 < inertia1

    def test_degenerate_fewer_points_than_k(self, rng):
        data = rng.uniform(size=(3, 4))
        km = KMeans(10, rng=rng).fit(data)
        assert km.centroids.shape == (10, 4)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KMeans(0)

    def test_rejects_empty_data(self, rng):
        with pytest.raises(ValueError):
            KMeans(2, rng=rng).fit(np.zeros((0, 3)))

    def test_predict_before_fit_raises(self, rng):
        with pytest.raises(RuntimeError):
            KMeans(2, rng=rng).predict(np.zeros((1, 2)))

    def test_deterministic_given_rng_seed(self):
        data, _ = three_clusters(np.random.default_rng(0))
        a = KMeans(3, rng=np.random.default_rng(1)).fit(data)
        b = KMeans(3, rng=np.random.default_rng(1)).fit(data)
        np.testing.assert_allclose(a.centroids, b.centroids)


class TestBagOfWords:
    @pytest.fixture()
    def fitted(self, rng):
        descs = rng.normal(size=(500, DESCRIPTOR_DIM))
        return BagOfWords(vocabulary_size=20, rng=rng).fit(descs)

    def test_histogram_normalised(self, fitted, rng):
        descs = rng.normal(size=(40, DESCRIPTOR_DIM))
        hist = fitted.histogram(descs)
        assert hist.shape == (20,)
        assert hist.sum() == pytest.approx(1.0)

    def test_histogram_empty_descriptors(self, fitted):
        hist = fitted.histogram(np.zeros((0, DESCRIPTOR_DIM)))
        np.testing.assert_allclose(hist, 0.0)

    def test_rejects_wrong_descriptor_dim(self, rng):
        with pytest.raises(ValueError):
            BagOfWords(vocabulary_size=5, rng=rng).fit(rng.normal(size=(10, 32)))

    def test_rejects_empty_fit(self, rng):
        with pytest.raises(ValueError):
            BagOfWords(vocabulary_size=5, rng=rng).fit(
                np.zeros((0, DESCRIPTOR_DIM))
            )

    def test_histogram_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BagOfWords().histogram(np.zeros((2, DESCRIPTOR_DIM)))

    def test_transform_image(self, fitted, rng):
        img = rng.uniform(size=(64, 64))
        hist = fitted.transform_image(img)
        assert hist.shape == (20,)
        assert hist.sum() == pytest.approx(1.0, abs=1e-9) or hist.sum() == 0.0

    def test_vocabulary_shape(self, fitted):
        assert fitted._kmeans.centroids.shape == (20, DESCRIPTOR_DIM)

    def test_default_vocabulary_size_is_papers(self):
        assert BagOfWords().vocabulary_size == 400
