"""Mahalanobis distance over colour features.

EECS compares candidate matches' Mean Color features under a
Mahalanobis distance learned from training data [27]; pairs within a
threshold are declared the same object.  The metric here fits the
feature covariance, with shrinkage towards the identity to stay
invertible on small samples.  The paper reduces the features with PCA
first; this reproduction compares them unreduced (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np


class MahalanobisMetric:
    """Shrinkage-regularised Mahalanobis distance."""

    def __init__(self, shrinkage: float = 0.1) -> None:
        if not 0.0 <= shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
        self.shrinkage = shrinkage
        self._precision: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._precision is not None

    def fit(self, features: np.ndarray) -> "MahalanobisMetric":
        """Fit the covariance on ``(n, d)`` samples."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or len(features) < 2:
            raise ValueError(
                f"need at least two (n, d) samples, got {features.shape}"
            )
        cov = np.cov(features, rowvar=False)
        cov = np.atleast_2d(cov)
        d = cov.shape[0]
        trace_mean = np.trace(cov) / d
        if trace_mean <= 1e-12:
            trace_mean = 1e-12
        shrunk = (1 - self.shrinkage) * cov + self.shrinkage * trace_mean * np.eye(d)
        self._precision = np.linalg.inv(shrunk)
        return self

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Mahalanobis distance between two raw feature vectors."""
        if self._precision is None:
            raise RuntimeError("MahalanobisMetric used before fit")
        diff = (
            np.asarray(a, dtype=float).ravel()
            - np.asarray(b, dtype=float).ravel()
        )
        value = float(diff @ self._precision @ diff)
        return float(np.sqrt(max(0.0, value)))
