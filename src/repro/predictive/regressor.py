"""Per-camera online activity regression (recursive least squares).

The RF-assisted wake-up paper (PAPERS.md, arXiv:2102.03350) replaces
always-on assessment with a self-supervised model that predicts when a
camera is worth waking.  This module is that model's lightweight
stand-in: one :class:`ActivityPredictor` per camera fits a recursive
least squares (RLS) regressor over the telemetry the protocol already
collects for free — per-assessment detection counts and calibrated
scores — and extrapolates the camera's next-round activity.  The
``predictive`` coordination policy skips assessment for cameras whose
predicted activity falls below its wake threshold.

Design constraints, in order:

* **Exactly serialisable.**  Every coefficient is a Python float
  (an IEEE double), and JSON round-trips doubles losslessly, so
  :meth:`snapshot`/:meth:`restore` reproduce the regressor bit for
  bit — the property the kill-and-resume checkpoint tests pin.
* **Seeded.**  The initial coefficient vector is drawn (at ~1e-9
  scale) from a generator seeded by the run configuration: it breaks
  ties deterministically without influencing converged predictions,
  and two runs with the same seed share byte-identical trajectories.
* **Cheap.**  The feature vector is three-dimensional, so one update
  is a handful of multiply-adds — negligible next to a single frame
  of detection.
"""

from __future__ import annotations

import numpy as np

#: Feature layout: bias, previous activity, previous mean score.
FEATURE_DIM = 3


class RecursiveLeastSquares:
    """Exponentially-forgetting RLS over a fixed feature vector.

    Attributes:
        dim: Feature dimension.
        forgetting: Forgetting factor ``lambda`` in (0, 1]; smaller
            values track non-stationary activity faster.
        theta: Coefficient vector (plain floats).
        updates: Observations folded in so far.
    """

    def __init__(
        self,
        dim: int = FEATURE_DIM,
        forgetting: float = 0.9,
        delta: float = 10.0,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < forgetting <= 1.0:
            raise ValueError(
                f"forgetting must be in (0, 1], got {forgetting}"
            )
        if delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {delta}")
        self.dim = dim
        self.forgetting = float(forgetting)
        if seed is None:
            theta = [0.0] * dim
        else:
            # Deterministic symmetry-breaking prior: small enough to be
            # forgotten after one real observation, large enough that
            # two identically-observed cameras never tie exactly.
            rng = np.random.default_rng(seed)
            theta = [float(v) for v in rng.standard_normal(dim) * 1e-9]
        self.theta: list[float] = theta
        # Inverse covariance, initialised to delta * I (weak prior).
        self.p: list[list[float]] = [
            [float(delta) if i == j else 0.0 for j in range(dim)]
            for i in range(dim)
        ]
        self.updates = 0

    def predict(self, features: list[float]) -> float:
        return sum(t * x for t, x in zip(self.theta, features))

    def update(self, features: list[float], target: float) -> None:
        """Fold one (features, target) observation into the fit."""
        lam = self.forgetting
        # k = P x / (lam + x' P x)
        px = [
            sum(self.p[i][j] * features[j] for j in range(self.dim))
            for i in range(self.dim)
        ]
        denom = lam + sum(features[i] * px[i] for i in range(self.dim))
        gain = [v / denom for v in px]
        error = target - self.predict(features)
        self.theta = [
            t + g * error for t, g in zip(self.theta, gain)
        ]
        # P = (P - k x' P) / lam
        xp = [
            sum(features[i] * self.p[i][j] for i in range(self.dim))
            for j in range(self.dim)
        ]
        self.p = [
            [
                (self.p[i][j] - gain[i] * xp[j]) / lam
                for j in range(self.dim)
            ]
            for i in range(self.dim)
        ]
        self.updates += 1

    def snapshot(self) -> dict:
        """Exact JSON state (floats survive the round-trip bit for
        bit)."""
        return {
            "dim": self.dim,
            "forgetting": self.forgetting,
            "theta": list(self.theta),
            "p": [list(row) for row in self.p],
            "updates": self.updates,
        }

    def restore(self, state: dict) -> None:
        self.dim = int(state["dim"])
        self.forgetting = float(state["forgetting"])
        self.theta = [float(v) for v in state["theta"]]
        self.p = [[float(v) for v in row] for row in state["p"]]
        self.updates = int(state["updates"])


class ActivityPredictor:
    """One camera's wake-up model: observe assessments, predict next.

    ``observe`` is called once per assessed round with the camera's
    measured activity (mean detections per assessment frame) and mean
    calibrated score; each call past the first also updates the RLS
    fit (features are the *previous* observation, the target is the
    current one — one-step-ahead self-supervision, no labels needed).
    """

    def __init__(self, forgetting: float = 0.9, seed: int | None = None):
        self.rls = RecursiveLeastSquares(
            FEATURE_DIM, forgetting=forgetting, seed=seed
        )
        self.observations = 0
        self._last: tuple[float, float] | None = None

    def observe(self, activity: float, mean_score: float) -> None:
        if self._last is not None:
            features = [1.0, self._last[0], self._last[1]]
            self.rls.update(features, float(activity))
        self._last = (float(activity), float(mean_score))
        self.observations += 1

    def predict_next(self) -> float | None:
        """Predicted next-round activity, or ``None`` before any
        observation."""
        if self._last is None:
            return None
        raw = self.rls.predict([1.0, self._last[0], self._last[1]])
        return max(0.0, raw)

    def ready(self, warmup: int) -> bool:
        """Whether the policy may act on this predictor's output."""
        return self.observations >= warmup and self.rls.updates >= 1

    def snapshot(self) -> dict:
        return {
            "rls": self.rls.snapshot(),
            "observations": self.observations,
            "last": list(self._last) if self._last is not None else None,
        }

    def restore(self, state: dict) -> None:
        self.rls.restore(state["rls"])
        self.observations = int(state["observations"])
        last = state.get("last")
        self._last = (
            (float(last[0]), float(last[1])) if last is not None else None
        )


class PredictorBank:
    """The fleet's predictors, one per camera, under one seed."""

    def __init__(
        self,
        camera_ids: list[str],
        forgetting: float = 0.9,
        seed: int = 2017,
    ) -> None:
        self.seed = seed
        self._predictors = {
            camera_id: ActivityPredictor(
                forgetting=forgetting, seed=(seed, index)
            )
            for index, camera_id in enumerate(camera_ids)
        }

    def predictor(self, camera_id: str) -> ActivityPredictor:
        return self._predictors[camera_id]

    def snapshot(self) -> dict:
        """Exact JSON state of every predictor (regressor
        coefficients included), keyed by camera id."""
        return {
            camera_id: predictor.snapshot()
            for camera_id, predictor in self._predictors.items()
        }

    def restore(self, state: dict) -> None:
        for camera_id, predictor_state in state.items():
            self._predictors[camera_id].restore(predictor_state)
