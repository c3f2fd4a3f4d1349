"""Multi-view detection fusion (Eq. 6).

Once detections from different cameras are grouped as one physical
object, their per-camera detection probabilities ``P_ij`` are combined
into a single true-positive probability: the complement of all views
being false positives,  ``P_i = 1 - prod_j (1 - P_ij)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.base import Detection


@dataclass
class ObjectGroup:
    """Detections from multiple cameras re-identified as one object."""

    detections: list[Detection] = field(default_factory=list)
    ground_point: tuple[float, float] | None = None

    @property
    def camera_ids(self) -> list[str]:
        return [d.camera_id for d in self.detections]

    @property
    def fused_probability(self) -> float:
        """Eq. (6) over the group's calibrated probabilities; raw
        detections without a calibrated probability contribute their
        clamped score as a fallback."""
        if not self.detections:
            return 0.0
        # Eq. (6) as a sequential product over Python floats, which
        # computes np.prod's result bit for bit.
        remainder = 1.0
        for det in self.detections:
            p = det.probability
            if p != p:  # NaN check without an isnan ufunc call
                p = min(1.0, max(0.0, det.score))
            remainder *= 1.0 - min(1.0, max(0.0, p))
        return 1.0 - remainder

    @property
    def truth_ids(self) -> set[int]:
        """Ground-truth ids present in the group (evaluation only)."""
        return {
            d.truth_id for d in self.detections if d.truth_id is not None
        }

    @property
    def is_true_object(self) -> bool:
        """Evaluation-only: does any member detection hit a real person?"""
        return len(self.truth_ids) > 0

    @property
    def majority_truth_id(self) -> int | None:
        """Most common ground-truth id among members (evaluation only).

        Ties break towards the smallest id — the same winner
        ``np.unique`` (sorted values) + ``argmax`` (first maximum)
        picked before this was scalarised off the per-frame path.
        """
        counts: dict[int, int] = {}
        for det in self.detections:
            if det.truth_id is not None:
                counts[det.truth_id] = counts.get(det.truth_id, 0) + 1
        if not counts:
            return None
        best_id = -1
        best_count = 0
        for truth_id in sorted(counts):
            if counts[truth_id] > best_count:
                best_id = truth_id
                best_count = counts[truth_id]
        return int(best_id)

    def add(self, detection: Detection) -> None:
        self.detections.append(detection)

    def __len__(self) -> int:
        return len(self.detections)
