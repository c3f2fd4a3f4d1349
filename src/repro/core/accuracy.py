"""Global detection accuracy estimation (Section IV-C).

Ground truth is unavailable at operation time, so EECS characterises
global accuracy by two measurable quantities: the number of distinct
objects jointly detected after re-identification, and the mean fused
detection probability (Eq. 6) over those objects.  A periodically
computed all-best baseline ``(N*, P*)`` anchors the desired accuracy
``D = [D_n, D_p]`` with ``D_n = gamma_n * N*`` and
``D_p = gamma_p * P*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.reid.fusion import ObjectGroup


@dataclass(frozen=True)
class GlobalAccuracy:
    """The controller's measurable accuracy proxy.

    Attributes:
        num_objects: Distinct objects detected (summed over the
            assessment frames).
        mean_probability: Mean fused detection probability of those
            objects (0 when nothing was detected).
    """

    num_objects: float
    mean_probability: float

    def __post_init__(self) -> None:
        if self.num_objects < 0:
            raise ValueError("num_objects cannot be negative")
        if not 0.0 <= self.mean_probability <= 1.0:
            raise ValueError(
                f"mean_probability must be in [0, 1], "
                f"got {self.mean_probability}"
            )

    def meets(self, desired: "DesiredAccuracy") -> bool:
        """Whether this accuracy satisfies the desired ``[D_n, D_p]``."""
        return (
            self.num_objects >= desired.min_objects
            and self.mean_probability >= desired.min_probability
        )


@dataclass(frozen=True)
class DesiredAccuracy:
    """The accuracy requirement ``D = [D_n, D_p]``."""

    min_objects: float
    min_probability: float

    @classmethod
    def from_baseline(
        cls,
        baseline: GlobalAccuracy,
        gamma_n: float,
        gamma_p: float,
    ) -> "DesiredAccuracy":
        """Scale the all-best baseline by the slack factors."""
        if not 0.0 < gamma_n <= 1.0 or not 0.0 < gamma_p <= 1.0:
            raise ValueError("gamma factors must lie in (0, 1]")
        return cls(
            min_objects=gamma_n * baseline.num_objects,
            min_probability=gamma_p * baseline.mean_probability,
        )


def estimate_global_accuracy(
    frame_groups: list[list[ObjectGroup]],
) -> GlobalAccuracy:
    """Aggregate re-identified object groups into ``(N, P-bar)``.

    Args:
        frame_groups: Per assessment frame, the list of re-identified
            object groups.

    Returns:
        Total detected-object count over the frames and the mean fused
        probability across all groups.
    """
    return accuracy_from_probabilities(
        [
            group.fused_probability
            for groups in frame_groups
            for group in groups
        ]
    )


def accuracy_from_probabilities(
    probabilities: Sequence[float] | np.ndarray,
) -> GlobalAccuracy:
    """``(N, P-bar)`` from every detected object's fused probability,
    frame by frame in group creation order (``np.mean`` sums in that
    order, so the order is part of the result)."""
    num_objects = len(probabilities)
    if num_objects == 0:
        return GlobalAccuracy(num_objects=0, mean_probability=0.0)
    return GlobalAccuracy(
        num_objects=float(num_objects),
        mean_probability=float(np.mean(probabilities)),
    )
