"""Core detection types: bounding boxes, detections, detection columns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.vision.color import (
    COLOR_FEATURE_DIM,
    finish_color,
    synthetic_color_base,
)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box ``(x, y, w, h)`` in pixel coordinates."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box dimensions must be non-negative: {self}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def bottom_center(self) -> tuple[float, float]:
        """Centre of the bottom edge — the paper's ground-contact point
        used for homography projection between views (Section IV-C)."""
        return (self.x + self.w / 2.0, self.y + self.h)

    def iou(self, other: "BoundingBox") -> float:
        """Intersection over union with another box."""
        ix = max(0.0, min(self.x2, other.x2) - max(self.x, other.x))
        iy = max(0.0, min(self.y2, other.y2) - max(self.y, other.y))
        inter = ix * iy
        union = self.area + other.area - inter
        if union <= 0:
            return 0.0
        return inter / union

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    @classmethod
    def from_tuple(
        cls, values: tuple[float, float, float, float]
    ) -> "BoundingBox":
        return cls(*values)


@dataclass
class Detection:
    """One scored detection emitted by a detector on one frame.

    Attributes:
        bbox: Detected area.
        score: Raw detector confidence (algorithm-specific scale).
        camera_id: Originating camera.
        frame_index: Frame the detection belongs to.
        algorithm: Name of the producing algorithm.
        color_feature: 40-dim appearance feature of the area (the
            paper's 160-byte per-object metadata payload).
        probability: Calibrated probability that the area is a true
            object; filled in by a :class:`ScoreCalibrator`.
        truth_id: Ground-truth person id for true positives, ``None``
            for false positives.  Used only by evaluation code — the
            controller never reads it.
    """

    bbox: BoundingBox
    score: float
    camera_id: str
    frame_index: int
    algorithm: str
    color_feature: np.ndarray = field(
        default_factory=lambda: np.zeros(40)
    )
    probability: float = float("nan")
    truth_id: int | None = None

    @property
    def is_true_positive(self) -> bool:
        """Ground-truth label (evaluation only)."""
        return self.truth_id is not None


class DetectionColumns(NamedTuple):
    """One frame's scored detections as plain columns.

    Entry ``i`` of every column describes one detection; entries run in
    decreasing score order, and tied scores keep their draw order.  A
    colour feature is kept as its raw standard-normal noise and
    finished only where it is read (:meth:`colors`,
    :func:`~repro.vision.color.finish_color`): the noise scaled by
    ``color_scales[i]``, shifted by the noise-free feature of
    ``color_shades[i]`` and clamped to ``[0, 1]``.
    """

    scores: tuple[float, ...]
    boxes: tuple[tuple[float, float, float, float], ...]
    truth_ids: tuple[int | None, ...]
    color_shades: tuple[float, ...]
    color_scales: tuple[float, ...]
    color_noise: tuple[np.ndarray, ...]

    def colors(self) -> np.ndarray:
        """Every finished colour feature, one row per detection."""
        if not self.scores:
            return np.empty((0, COLOR_FEATURE_DIM))
        bases: dict[float, np.ndarray] = {}
        for shade in self.color_shades:
            if shade not in bases:
                bases[shade] = synthetic_color_base(shade)
        return finish_color(
            np.stack(self.color_noise),
            np.array(self.color_scales)[:, None],
            np.stack([bases[shade] for shade in self.color_shades]),
        )
