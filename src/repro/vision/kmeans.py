"""Lloyd's k-means with k-means++ seeding.

Used to cluster keypoint descriptors into the 400-word visual
vocabulary of Section V-A.

The Lloyd update is vectorised (a label sort plus one grouped
``np.add.reduceat`` pass instead of a per-centroid mask-and-mean
loop); the loop version is kept as
:meth:`KMeans._update_centroids_reference` for the equivalence tests.
"""

from __future__ import annotations

import numpy as np

_ASSIGN_CHUNK = 4096


class KMeans:
    """Plain k-means clustering.

    Attributes:
        k: Number of clusters.
        max_iterations: Cap on Lloyd iterations.
        tol: Convergence threshold on total centroid movement.
        centroids: ``(k, d)`` array after :meth:`fit`.
    """

    def __init__(
        self,
        k: int,
        max_iterations: int = 50,
        tol: float = 1e-4,
        rng: np.random.Generator | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.max_iterations = max_iterations
        self.tol = tol
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.centroids: np.ndarray | None = None
        self.iterations_run = 0

    def _init_centroids(self, data: np.ndarray) -> np.ndarray:
        """k-means++ seeding."""
        n = len(data)
        centroids = np.empty((self.k, data.shape[1]))
        first = self._rng.integers(n)
        centroids[0] = data[first]
        closest_sq = np.full(n, np.inf)
        for idx in range(1, self.k):
            dist_sq = np.sum((data - centroids[idx - 1]) ** 2, axis=1)
            closest_sq = np.minimum(closest_sq, dist_sq)
            total = closest_sq.sum()
            if total <= 1e-12:
                # All points coincide with chosen centroids; reuse any.
                centroids[idx:] = data[self._rng.integers(n, size=self.k - idx)]
                break
            probs = closest_sq / total
            centroids[idx] = data[self._rng.choice(n, p=probs)]
        return centroids

    def _update_centroids(
        self, data: np.ndarray, labels: np.ndarray, centroids: np.ndarray
    ) -> np.ndarray:
        """One Lloyd update: member means, empty clusters unchanged.

        Members are grouped by a stable sort on their labels and summed
        per group in a single ``np.add.reduceat`` pass — one gather and
        one reduction instead of ``k`` boolean mask scans.
        """
        counts = np.bincount(labels, minlength=self.k)
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        boundaries = np.flatnonzero(np.r_[True, np.diff(sorted_labels) > 0])
        sums = np.add.reduceat(data[order], boundaries, axis=0)
        present = sorted_labels[boundaries]
        new_centroids = np.array(centroids)
        new_centroids[present] = sums / counts[present, None]
        return new_centroids

    def _update_centroids_reference(
        self, data: np.ndarray, labels: np.ndarray, centroids: np.ndarray
    ) -> np.ndarray:
        """Original per-centroid loop update (equivalence baseline)."""
        new_centroids = np.array(centroids)
        for idx in range(self.k):
            members = data[labels == idx]
            if len(members) > 0:
                new_centroids[idx] = members.mean(axis=0)
        return new_centroids

    def fit(self, data: np.ndarray) -> "KMeans":
        """Cluster ``(n, d)`` data; n may be smaller than k."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or len(data) == 0:
            raise ValueError(f"expected non-empty (n, d) data, got {data.shape}")
        if len(data) <= self.k:
            # Degenerate: every point is its own centroid; pad by repeats.
            reps = int(np.ceil(self.k / len(data)))
            self.centroids = np.tile(data, (reps, 1))[: self.k]
            self.iterations_run = 0
            return self

        centroids = self._init_centroids(data)
        for iteration in range(self.max_iterations):
            labels = self._assign(data, centroids)
            new_centroids = self._update_centroids(data, labels, centroids)
            movement = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            self.iterations_run = iteration + 1
            if movement < self.tol:
                break
        self.centroids = centroids
        return self

    @staticmethod
    def _assign(
        data: np.ndarray, centroids: np.ndarray, chunk: int = _ASSIGN_CHUNK
    ) -> np.ndarray:
        """Nearest-centroid labels, chunked to bound memory.

        One ``(chunk, k)`` distance buffer is allocated up front and
        reused across chunks (the cross-term is written into it via
        ``matmul(..., out=...)``), so assignment allocates O(chunk * k)
        once instead of three temporaries per chunk.
        """
        n = len(data)
        labels = np.empty(n, dtype=int)
        centroid_sq = np.sum(centroids**2, axis=1)
        buffer = np.empty((min(chunk, n), len(centroids)))
        for start in range(0, n, chunk):
            block = data[start : start + chunk]
            dists = buffer[: len(block)]
            np.matmul(block, centroids.T, out=dists)
            dists *= -2.0
            dists += np.sum(block**2, axis=1)[:, None]
            dists += centroid_sq[None, :]
            labels[start : start + len(block)] = np.argmin(dists, axis=1)
        return labels

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Nearest-centroid labels for ``(n, d)`` data."""
        if self.centroids is None:
            raise RuntimeError("KMeans.predict called before fit")
        data = np.atleast_2d(np.asarray(data, dtype=float))
        return self._assign(data, self.centroids)
