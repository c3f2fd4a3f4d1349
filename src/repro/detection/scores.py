"""Score-to-probability calibration.

The paper converts detection scores into detection probabilities "via
an offline training process" (footnote 5); those probabilities feed
the multi-camera fusion of Eq. (6).  This module implements a
one-dimensional logistic calibration fitted with Newton-Raphson on
labelled (score, is-true-positive) pairs collected during offline
training.
"""

from __future__ import annotations

import numpy as np


def logistic(logits: np.ndarray) -> np.ndarray:
    """The calibrated probability of each logit, clipped to +-30 so
    ``exp`` never overflows; elementwise, so an entry never depends on
    the rest of the array."""
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))


class ScoreCalibrator:
    """Logistic mapping from raw detector score to P(true positive)."""

    def __init__(self) -> None:
        self.weight: float = 1.0
        self.bias: float = 0.0
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(
        self,
        scores: np.ndarray,
        labels: np.ndarray,
        max_iterations: int = 50,
        l2: float = 1e-3,
    ) -> "ScoreCalibrator":
        """Fit by penalised maximum likelihood.

        Args:
            scores: Raw detector scores.
            labels: 1 for true positives, 0 for false positives.
            max_iterations: Newton iteration cap.
            l2: Ridge penalty keeping the fit stable when classes are
                separable (common for high-precision detectors).
        """
        scores = np.asarray(scores, dtype=float).ravel()
        labels = np.asarray(labels, dtype=float).ravel()
        if scores.shape != labels.shape:
            raise ValueError("scores and labels must have the same length")
        if len(scores) < 2:
            raise ValueError("need at least two samples to calibrate")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        if np.all(labels == labels[0]):
            # Single-class data: fall back to a confident constant.
            self.weight = 0.0
            self.bias = 4.0 if labels[0] == 1 else -4.0
            self._fitted = True
            return self

        # Standardise scores for conditioning; fold back afterwards.
        mu, sd = scores.mean(), scores.std()
        sd = sd if sd > 1e-9 else 1.0
        x = (scores - mu) / sd

        w, b = 0.0, 0.0
        for _ in range(max_iterations):
            logits = w * x + b
            p = logistic(logits)
            grad_w = np.sum((p - labels) * x) + l2 * w
            grad_b = np.sum(p - labels)
            s = np.maximum(p * (1 - p), 1e-6)
            h_ww = np.sum(s * x * x) + l2
            h_wb = np.sum(s * x)
            h_bb = np.sum(s)
            det = h_ww * h_bb - h_wb**2
            if abs(det) < 1e-12:
                break
            dw = (h_bb * grad_w - h_wb * grad_b) / det
            db = (h_ww * grad_b - h_wb * grad_w) / det
            w -= dw
            b -= db
            if abs(dw) + abs(db) < 1e-9:
                break

        self.weight = w / sd
        self.bias = b - w * mu / sd
        self._fitted = True
        return self

    def predict_proba(self, scores: np.ndarray) -> np.ndarray:
        """P(true positive) for raw scores."""
        if not self._fitted:
            raise RuntimeError("ScoreCalibrator used before fit")
        scores = np.asarray(scores, dtype=float)
        return logistic(self.weight * scores + self.bias)

    def __call__(self, score: float) -> float:
        return float(self.predict_proba(np.array([score]))[0])
