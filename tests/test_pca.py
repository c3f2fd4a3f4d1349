"""Tests for PCA and subspace bases."""

import numpy as np
import pytest

from repro.domain_adaptation.pca import PCA, uncentered_basis


class TestPCA:
    def test_components_orthonormal(self, rng):
        data = rng.normal(size=(50, 10))
        pca = PCA(4).fit(data)
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_first_component_is_max_variance(self, rng):
        # Data stretched along a known direction.
        direction = np.array([3.0, 4.0]) / 5.0
        data = rng.normal(size=(200, 1)) * 5.0 @ direction[None, :]
        data += rng.normal(scale=0.1, size=data.shape)
        pca = PCA(1).fit(data)
        cos = abs(pca.components_[0] @ direction)
        assert cos > 0.99

    def test_explained_variance_descending(self, rng):
        data = rng.normal(size=(60, 8)) * np.arange(1, 9)
        pca = PCA(5).fit(data)
        ev = pca.explained_variance_
        assert np.all(np.diff(ev) <= 1e-9)

    def test_transform_centers_data(self, rng):
        data = rng.normal(loc=5.0, size=(40, 6))
        pca = PCA(3).fit(data)
        projected = pca.transform(data)
        np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-9)

    def test_rank_limits_components(self, rng):
        data = rng.normal(size=(5, 20))
        pca = PCA(10).fit(data)
        assert pca.components_.shape[0] == 4  # n - 1

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            PCA(2).fit(np.zeros((1, 5)))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PCA(2).transform(np.zeros((3, 5)))


class TestBases:
    def test_uncentered_basis_orthonormal(self, rng):
        data = rng.normal(size=(30, 15))
        basis = uncentered_basis(data, 6)
        np.testing.assert_allclose(
            basis.T @ basis, np.eye(6), atol=1e-10
        )

    def test_uncentered_basis_keeps_mean_direction(self, rng):
        mean = np.zeros(10)
        mean[0] = 100.0
        data = mean + rng.normal(scale=0.1, size=(20, 10))
        basis = uncentered_basis(data, 3)
        # The dominant direction must align with the mean.
        cos = abs(basis[:, 0] @ (mean / np.linalg.norm(mean)))
        assert cos > 0.999

    def test_uncentered_rejects_empty(self):
        with pytest.raises(ValueError):
            uncentered_basis(np.zeros((0, 5)), 2)
