"""Geodesic flow kernel (Eq. 2 of the paper; Gong et al. CVPR 2012).

Given PCA subspace bases ``x`` (training video) and ``z`` (incoming
video), both ``(alpha, beta)`` with orthonormal columns, the geodesic
flow ``theta(y)`` interpolates between them on the Grassmann manifold.
Integrating projections along the flow (Eq. 1) yields a positive
semi-definite kernel

    W = [x U,  x_perp U2] [[L1, L2], [L2, L3]] [x U, x_perp U2]^T

whose blocks are closed-form functions of the principal angles.

``alpha`` is large (4180 for the paper's features), so this module
never materialises the ``alpha x alpha`` matrix: ``W = M B M^T`` with
``M`` of shape ``(alpha, 2*beta)``, and all kernel applications go
through the factor.  The orthogonal complement is likewise never
formed explicitly — the needed ``x_perp U2`` columns are recovered
from ``(I - x x^T) z V / sin(theta)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.cache import ArrayCache, array_token

_TINY_ANGLE = 1e-7


@dataclass(frozen=True)
class GeodesicFlowKernel:
    """Factorised GFK: ``W = factor @ core @ factor.T``.

    Attributes:
        factor: ``(alpha, 2*beta)`` matrix ``M = [x U, x_perp U2]``.
        core: ``(2*beta, 2*beta)`` symmetric PSD block matrix ``B``.
        angles: Principal angles between the two subspaces.
    """

    factor: np.ndarray
    core: np.ndarray
    angles: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.factor.shape[0]

    def apply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Compute ``a @ W @ b.T`` for feature stacks ``a, b``.

        Args:
            a: ``(k1, alpha)`` features.
            b: ``(k2, alpha)`` features.

        Returns:
            ``(k1, k2)`` geodesic-flow inner products (Eq. 1).
        """
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[1] != self.ambient_dim or b.shape[1] != self.ambient_dim:
            raise ValueError(
                f"features must have dim {self.ambient_dim}, got "
                f"{a.shape[1]} and {b.shape[1]}"
            )
        pa = a @ self.factor
        pb = b @ self.factor
        return pa @ self.core @ pb.T

    def quadratic(self, a: np.ndarray) -> np.ndarray:
        """Diagonal of ``a @ W @ a.T`` — per-row self inner products."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        pa = a @ self.factor
        return np.einsum("ij,jk,ik->i", pa, self.core, pa)


def _flow_coefficients(
    angles: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form integrals L1, L2, L3 of the geodesic flow.

    With the flow written as ``Phi(y) = x U cos(Theta y) + Q2
    sin(Theta y)`` (where ``Q2`` is built so that ``Phi(1) = z V``),
    the integrals over ``y in [0, 1]`` are

        L1 = int cos^2   = (1 + sin(2t)/(2t)) / 2,
        L2 = int cos*sin = (1 - cos(2t)) / (4t),
        L3 = int sin^2   = (1 - sin(2t)/(2t)) / 2,

    with the ``t -> 0`` limits (1, 0, 0).
    """
    safe = np.where(angles < _TINY_ANGLE, 1.0, angles)
    sinc_term = np.sin(2 * safe) / (2 * safe)
    cos_term = (1.0 - np.cos(2 * safe)) / (2 * safe)
    l1 = 0.5 * (1.0 + sinc_term)
    l2 = 0.5 * cos_term
    l3 = 0.5 * (1.0 - sinc_term)
    tiny = angles < _TINY_ANGLE
    l1[tiny] = 1.0
    l2[tiny] = 0.0
    l3[tiny] = 0.0
    return l1, l2, l3


def geodesic_flow_kernel(
    x: np.ndarray, z: np.ndarray, cache: ArrayCache | None = None
) -> GeodesicFlowKernel:
    """Build the GFK between subspace bases ``x`` and ``z``.

    Args:
        x: ``(alpha, beta)`` orthonormal basis of the training video's
            PCA subspace.
        z: ``(alpha, beta)`` orthonormal basis of the incoming video's
            PCA subspace (the column counts may differ; the smaller
            one bounds the number of principal angles).
        cache: Optional content-keyed memo cache; the SVD and factor
            construction are skipped when the same (x, z) pair was
            seen before.  The cached :class:`GeodesicFlowKernel` is
            returned by reference — treat it as immutable.

    Returns:
        A factorised :class:`GeodesicFlowKernel`.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 2 or z.ndim != 2:
        raise ValueError("bases must be 2-D (alpha, beta) arrays")
    if x.shape[0] != z.shape[0]:
        raise ValueError(
            f"bases live in different ambient spaces: {x.shape} vs {z.shape}"
        )
    if cache is not None:
        key = ("gfk", array_token(x), array_token(z))
        return cache.get_or_compute(key, lambda: _build_kernel(x, z))
    return _build_kernel(x, z)


def _build_kernel(x: np.ndarray, z: np.ndarray) -> GeodesicFlowKernel:
    alpha = x.shape[0]

    # SVD of x^T z gives U (rotation inside span(x)), the cosines, and V.
    u, cosines, vt = np.linalg.svd(x.T @ z)
    v = vt.T
    cosines = np.clip(cosines, -1.0, 1.0)
    angles = np.arccos(cosines)
    beta = len(angles)

    # Recover x_perp @ U2 without forming the (alpha, alpha-beta)
    # complement:  (I - x x^T) z V has orthogonal columns with norms
    # sin(theta_i); normalising yields exactly x_perp U2.  Columns with
    # sin(theta) ~ 0 contribute nothing (their L2/L3 coefficients
    # vanish), so they are zeroed rather than divided.
    residual = z @ v - x @ (x.T @ (z @ v))
    sines = np.sin(angles)
    q2 = np.zeros_like(residual)
    nonzero = sines > _TINY_ANGLE
    q2[:, nonzero] = residual[:, nonzero] / sines[nonzero]

    factor = np.hstack([x @ u[:, :beta], q2])

    l1, l2, l3 = _flow_coefficients(angles)
    core = np.zeros((2 * beta, 2 * beta))
    core[:beta, :beta] = np.diag(l1)
    core[:beta, beta:] = np.diag(l2)
    core[beta:, :beta] = np.diag(l2)
    core[beta:, beta:] = np.diag(l3)

    assert factor.shape == (alpha, 2 * beta)
    return GeodesicFlowKernel(factor=factor, core=core, angles=angles)
