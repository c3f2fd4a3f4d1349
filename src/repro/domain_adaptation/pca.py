"""Subspace bases for video comparison.

Section III projects each video's frame features onto a
``beta``-dimensional PCA subspace whose orthonormal basis is the point
on the Grassmann manifold the geodesic flow kernel compares.
"""

from __future__ import annotations

import numpy as np

from repro.perf.cache import ArrayCache, array_token


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
