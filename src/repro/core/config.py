"""EECS configuration.

Default values follow Section VI-E of the paper: accuracy slack
factors ``gamma_n = 0.85`` / ``gamma_p = 0.8``, a 100-frame accuracy
assessment period and a 500-frame re-calibration interval, a 6-hour
operation time with one processed frame every 2 seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EECSConfig:
    """Tunable parameters of the EECS controller.

    Attributes:
        gamma_n: Required fraction of the baseline object count
            (``D_n >= gamma_n * N*``).
        gamma_p: Required fraction of the baseline mean detection
            probability (``D_p >= gamma_p * P*``).
        assessment_period: Frames of detection metadata used per
            accuracy assessment.
        recalibration_interval: Frames between re-assessments; the
            current camera/algorithm selection holds in between.
        subspace_dim: PCA dimension ``beta`` for the GFK comparison.
        feature_frames: Frames sampled per video for feature upload.
        operation_time_s: Expected remaining operation time, used to
            derive per-frame budgets.
        seconds_per_frame: Processing cadence.
        ground_radius_m: Re-identification gating distance on the
            ground plane.
        color_threshold: Mahalanobis gate for colour verification.
        iou_threshold: Box-overlap threshold for evaluation matching.
    """

    gamma_n: float = 0.85
    gamma_p: float = 0.8
    assessment_period: int = 100
    recalibration_interval: int = 500
    subspace_dim: int = 16
    feature_frames: int = 100
    operation_time_s: float = 6 * 3600.0
    seconds_per_frame: float = 2.0
    ground_radius_m: float = 0.9
    color_threshold: float = 3.5
    iou_threshold: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma_n <= 1.0:
            raise ValueError(f"gamma_n must be in (0, 1], got {self.gamma_n}")
        if not 0.0 < self.gamma_p <= 1.0:
            raise ValueError(f"gamma_p must be in (0, 1], got {self.gamma_p}")
        if self.assessment_period < 1:
            raise ValueError("assessment_period must be >= 1 frame")
        if self.recalibration_interval < self.assessment_period:
            raise ValueError(
                "recalibration_interval must cover the assessment period"
            )
        if self.operation_time_s <= 0 or self.seconds_per_frame <= 0:
            raise ValueError("operation time and cadence must be positive")
        for name in ("ground_radius_m", "color_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}"
                )
