"""Principal component analysis.

Section III projects each video's frame features onto a
``beta``-dimensional PCA subspace whose orthonormal basis is the point
on the Grassmann manifold the geodesic flow kernel compares.
"""

from __future__ import annotations

import numpy as np

from repro.perf.cache import ArrayCache, array_token


class PCA:
    """PCA via economy SVD of the centred data matrix."""

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise ValueError("n_components must be positive")
        self.n_components = n_components
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "PCA":
        """Fit on ``(n, d)`` data with ``n >= 2``."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"expected (n, d) data, got {data.shape}")
        n, d = data.shape
        if n < 2:
            raise ValueError("PCA needs at least two samples")
        k = min(self.n_components, n - 1, d)
        self.mean_ = data.mean(axis=0)
        centred = data - self.mean_
        # Economy SVD: centred = U S Vt, rows of Vt are components.
        _, s, vt = np.linalg.svd(centred, full_matrices=False)
        self.components_ = vt[:k]
        self.explained_variance_ = (s[:k] ** 2) / (n - 1)
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        if self.components_ is None:
            raise RuntimeError("PCA.transform called before fit")
        data = np.atleast_2d(np.asarray(data, dtype=float))
        return (data - self.mean_) @ self.components_.T



def uncentered_basis(
    data: np.ndarray, dim: int, cache: ArrayCache | None = None
) -> np.ndarray:
    """Orthonormal basis of the top singular directions, *without*
    mean-centering.

    For video comparison the static scene content (the background) is
    the discriminative part and it lives in the mean of the frame
    features; centering would project it away.  The uncentered SVD
    keeps the mean direction as the dominant basis vector, so two
    videos of the same scene yield strongly aligned subspaces.

    Args:
        data: Non-empty ``(n, d)`` feature stack.
        dim: Requested subspace dimension (capped by the data's rank).
        cache: Optional content-keyed memo cache; the SVD is skipped
            when the same (data, dim) pair was seen before.  Treat the
            returned basis as read-only when a cache is supplied.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) < 1:
        raise ValueError(f"expected non-empty (n, d) data, got {data.shape}")
    k = min(dim, *data.shape)
    if cache is None:
        return _uncentered_basis_svd(data, k)
    key = ("uncentered_basis", array_token(data), k)
    return cache.get_or_compute(key, lambda: _uncentered_basis_svd(data, k))


def _uncentered_basis_svd(data: np.ndarray, k: int) -> np.ndarray:
    _, _, vt = np.linalg.svd(data, full_matrices=False)
    return vt[:k].T
