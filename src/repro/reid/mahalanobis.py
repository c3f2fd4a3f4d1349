"""Mahalanobis distance over PCA-reduced colour features.

EECS reduces each detected area's Mean Color feature with PCA and
compares candidate matches under a Mahalanobis distance learned from
training data [27]; pairs within a threshold are declared the same
object.  The metric here fits the feature covariance (with shrinkage
towards the identity to stay invertible on small samples) and an
optional PCA reduction.
"""

from __future__ import annotations

import numpy as np

from repro.domain_adaptation.pca import PCA


class MahalanobisMetric:
    """Shrinkage-regularised Mahalanobis distance with PCA reduction."""

    def __init__(
        self, n_components: int | None = None, shrinkage: float = 0.1
    ) -> None:
        if not 0.0 <= shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
        self.n_components = n_components
        self.shrinkage = shrinkage
        self._pca: PCA | None = None
        self._precision: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._precision is not None

    def fit(self, features: np.ndarray) -> "MahalanobisMetric":
        """Fit covariance (and PCA, if configured) on ``(n, d)`` samples."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or len(features) < 2:
            raise ValueError(
                f"need at least two (n, d) samples, got {features.shape}"
            )
        if self.n_components is not None:
            self._pca = PCA(self.n_components).fit(features)
            features = self._pca.transform(features)
        cov = np.cov(features, rowvar=False)
        cov = np.atleast_2d(cov)
        d = cov.shape[0]
        trace_mean = np.trace(cov) / d
        if trace_mean <= 1e-12:
            trace_mean = 1e-12
        shrunk = (1 - self.shrinkage) * cov + self.shrinkage * trace_mean * np.eye(d)
        self._precision = np.linalg.inv(shrunk)
        return self

    def _reduce(self, feature: np.ndarray) -> np.ndarray:
        feature = np.asarray(feature, dtype=float).ravel()
        if self._pca is not None:
            return self._pca.transform(feature[None, :])[0]
        return feature

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Mahalanobis distance between two raw feature vectors."""
        if self._precision is None:
            raise RuntimeError("MahalanobisMetric used before fit")
        diff = self._reduce(a) - self._reduce(b)
        value = float(diff @ self._precision @ diff)
        return float(np.sqrt(max(0.0, value)))
