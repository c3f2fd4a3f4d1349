"""Tests for the subspace bases."""

import numpy as np
import pytest

from repro.domain_adaptation.pca import uncentered_basis


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
