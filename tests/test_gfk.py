"""Tests for the geodesic flow kernel."""

import numpy as np
import pytest

from repro.domain_adaptation.gfk import geodesic_flow_kernel
from tests.subspaces import orthonormalize


def random_basis(rng, alpha, beta):
    return orthonormalize(rng.normal(size=(alpha, beta)))


def principal_angles(x, z):
    """The principal angles the kernel's flow coefficients are built on."""
    return geodesic_flow_kernel(x, z).angles


class TestPrincipalAngles:
    def test_identical_subspaces_zero_angles(self, rng):
        x = random_basis(rng, 20, 4)
        np.testing.assert_allclose(principal_angles(x, x), 0.0, atol=1e-7)

    def test_orthogonal_subspaces_right_angles(self):
        x = np.eye(10)[:, :3]
        z = np.eye(10)[:, 5:8]
        np.testing.assert_allclose(
            principal_angles(x, z), np.pi / 2, atol=1e-10
        )

    def test_angles_in_valid_range(self, rng):
        x = random_basis(rng, 30, 5)
        z = random_basis(rng, 30, 5)
        angles = principal_angles(x, z)
        assert np.all(angles >= -1e-12)
        assert np.all(angles <= np.pi / 2 + 1e-12)

    def test_symmetric(self, rng):
        x = random_basis(rng, 25, 4)
        z = random_basis(rng, 25, 4)
        np.testing.assert_allclose(
            principal_angles(x, z), principal_angles(z, x), atol=1e-9
        )

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            principal_angles(
                random_basis(rng, 10, 2), random_basis(rng, 12, 2)
            )


class TestGeodesicFlowKernel:
    def test_kernel_matrix_symmetric(self, rng):
        x = random_basis(rng, 12, 3)
        z = random_basis(rng, 12, 3)
        w = geodesic_flow_kernel(x, z).matrix()
        np.testing.assert_allclose(w, w.T, atol=1e-10)

    def test_kernel_positive_semidefinite(self, rng):
        x = random_basis(rng, 15, 4)
        z = random_basis(rng, 15, 4)
        w = geodesic_flow_kernel(x, z).matrix()
        eigenvalues = np.linalg.eigvalsh(w)
        assert eigenvalues.min() > -1e-10

    def test_identical_subspaces_project_fully(self, rng):
        """When x == z the kernel is the projector onto span(x): vectors
        inside the subspace keep their inner products."""
        x = random_basis(rng, 10, 3)
        kernel = geodesic_flow_kernel(x, x)
        v = x @ rng.normal(size=3)
        assert kernel.apply(v, v)[0, 0] == pytest.approx(v @ v, abs=1e-8)

    def test_apply_matches_matrix(self, rng):
        x = random_basis(rng, 12, 3)
        z = random_basis(rng, 12, 3)
        kernel = geodesic_flow_kernel(x, z)
        a = rng.normal(size=(4, 12))
        b = rng.normal(size=(5, 12))
        np.testing.assert_allclose(
            kernel.apply(a, b), a @ kernel.matrix() @ b.T, atol=1e-8
        )

    def test_quadratic_matches_apply_diagonal(self, rng):
        x = random_basis(rng, 12, 3)
        z = random_basis(rng, 12, 3)
        kernel = geodesic_flow_kernel(x, z)
        a = rng.normal(size=(6, 12))
        np.testing.assert_allclose(
            kernel.quadratic(a), np.diag(kernel.apply(a, a)), atol=1e-8
        )

    def test_factorisation_saves_memory(self, rng):
        """The factor has 2*beta columns, never alpha."""
        x = random_basis(rng, 200, 5)
        z = random_basis(rng, 200, 5)
        kernel = geodesic_flow_kernel(x, z)
        assert kernel.factor.shape == (200, 10)
        assert kernel.core.shape == (10, 10)

    def test_symmetric_in_arguments(self, rng):
        """Swapping source/target subspaces yields the same kernel
        values (the geodesic flow integral is symmetric)."""
        x = random_basis(rng, 14, 3)
        z = random_basis(rng, 14, 3)
        a = rng.normal(size=(3, 14))
        b = rng.normal(size=(3, 14))
        k_xz = geodesic_flow_kernel(x, z).apply(a, b)
        k_zx = geodesic_flow_kernel(z, x).apply(a, b)
        np.testing.assert_allclose(k_xz, k_zx, atol=1e-7)

    def test_rejects_mismatched_ambient(self, rng):
        with pytest.raises(ValueError):
            geodesic_flow_kernel(
                random_basis(rng, 10, 2), random_basis(rng, 11, 2)
            )

    def test_apply_rejects_wrong_feature_dim(self, rng):
        kernel = geodesic_flow_kernel(
            random_basis(rng, 10, 2), random_basis(rng, 10, 2)
        )
        with pytest.raises(ValueError):
            kernel.apply(np.zeros((2, 7)), np.zeros((2, 10)))
