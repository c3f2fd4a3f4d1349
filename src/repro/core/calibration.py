"""Offline training at the central controller (Section IV-A).

For every (detection algorithm, training video) pair — ``H x N``
combinations — the controller runs the algorithm over the training
frames, sweeps the detection-score threshold to find the
f_score-maximising cut-off ``d_t``, records precision/recall/f_score
at that point along with the measured per-frame energy and latency,
and fits a score-to-probability calibrator from the labelled scores.
The result is a :class:`TrainingLibrary`: per training item, a ranked
list of :class:`AlgorithmProfile` records plus the item's feature
stack for GFK matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.datasets.groundtruth import ground_truth_boxes
from repro.detection.metrics import ScoredFrame, best_threshold
from repro.detection.scores import ScoreCalibrator
from repro.domain_adaptation.pca import uncentered_basis
from repro.energy.model import ProcessingEnergyModel
from repro.perf.cache import ArrayCache
from repro.world.renderer import FrameObservation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.detection.detectors import SimulatedDetector


@dataclass
class AlgorithmProfile:
    """Measured performance of one algorithm on one training item.

    Attributes:
        algorithm: Detector name.
        training_item: Name of the training video it was measured on.
        threshold: f_score-maximising detection-score cut-off ``d_t``.
        precision: Precision at ``threshold``.
        recall: Recall at ``threshold``.
        f_score: f_score at ``threshold``.
        energy_per_frame: Joules per processed frame (processing only;
            communication is algorithm-independent).
        time_per_frame: Seconds per processed frame.
        calibrator: Score-to-probability mapping fitted on the
            training detections.
    """

    algorithm: str
    training_item: str
    threshold: float
    precision: float
    recall: float
    f_score: float
    energy_per_frame: float
    time_per_frame: float
    calibrator: ScoreCalibrator = field(default_factory=ScoreCalibrator)

    @property
    def efficiency(self) -> float:
        """The paper's downgrade figure of merit: f_score per Joule."""
        if self.energy_per_frame <= 0:
            return float("inf")
        return self.f_score / self.energy_per_frame


def score_frames(
    detector: "SimulatedDetector",
    observations: list[FrameObservation],
    rng: np.random.Generator,
) -> list[ScoredFrame]:
    """Every candidate ``detector`` scores on each observation, in
    turn from ``rng``, with the frame's ground-truth boxes.

    Reads the detector's column draw; no :class:`Detection` is built
    and no colour is finished.
    """
    return [
        ScoredFrame.from_columns(
            detector.draw(observation, rng), ground_truth_boxes(observation)
        )
        for observation in observations
    ]


def profile_algorithm(
    detector: "SimulatedDetector",
    frames: list[ScoredFrame],
    training_item: str,
    energy_model: ProcessingEnergyModel,
    num_steps: int = 60,
) -> AlgorithmProfile:
    """Build the profile of one algorithm from its scored detections.

    Args:
        detector: The profiled detector (its name and energy cost are
            recorded).
        frames: Every scored detection of each training frame, with
            its ground-truth boxes (:func:`score_frames`).
        training_item: Name of the training video.
        energy_model: Resolution-bound cost model for this camera.
        num_steps: Threshold sweep granularity.
    """
    threshold, counts = best_threshold(frames, num_steps=num_steps)
    calibrator = ScoreCalibrator()
    scores = np.concatenate([frame.scores for frame in frames])
    if len(scores) >= 2:
        calibrator.fit(
            scores, np.concatenate([frame.labels for frame in frames])
        )
    return AlgorithmProfile(
        algorithm=detector.name,
        training_item=training_item,
        threshold=float(threshold),
        precision=counts.precision,
        recall=counts.recall,
        f_score=counts.f_score,
        energy_per_frame=energy_model.energy_per_frame(detector.name),
        time_per_frame=energy_model.time_per_frame(detector.name),
        calibrator=calibrator,
    )


@dataclass
class TrainingItem:
    """One training video's offline-training output.

    Attributes:
        name: Training item identifier, e.g. ``"T_1.1"``.
        profiles: Per-algorithm measured profiles.
        features: ``(k, alpha)`` frame-feature stack for GFK matching
            (may be empty when similarity matching is not needed).
    """

    name: str
    profiles: dict[str, AlgorithmProfile]
    features: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0))
    )

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError(f"training item {self.name!r} has no profiles")
        for algorithm, profile in self.profiles.items():
            if profile.algorithm != algorithm:
                raise ValueError(
                    f"profile key {algorithm!r} does not match "
                    f"profile.algorithm {profile.algorithm!r}"
                )

    def ranked(self) -> list[AlgorithmProfile]:
        """Profiles sorted by decreasing f_score."""
        return sorted(self.profiles.values(), key=lambda p: -p.f_score)

    def profile(self, algorithm: str) -> AlgorithmProfile:
        try:
            return self.profiles[algorithm]
        except KeyError:
            raise KeyError(
                f"training item {self.name!r} has no profile for "
                f"{algorithm!r}; available: {sorted(self.profiles)}"
            ) from None

    def subspace(
        self, dim: int, cache: ArrayCache | None = None
    ) -> np.ndarray:
        """The item's uncentered PCA basis for GFK matching.

        With a cache (typically :attr:`TrainingLibrary.cache`), the
        SVD over the feature stack runs once per (item, dim) no matter
        how many cameras recalibrate against this item.
        """
        if self.features.size == 0:
            raise ValueError(
                f"training item {self.name!r} has no feature stack"
            )
        return uncentered_basis(self.features, dim, cache=cache)


class TrainingLibrary:
    """All training items known to the controller.

    The library owns the shared calibration memo cache: every consumer
    that derives per-item artifacts (PCA subspaces, GFK factors)
    should route its computation through :attr:`cache` so a second
    recalibration pass over unchanged training data costs no SVDs.
    """

    def __init__(self, cache: ArrayCache | None = None) -> None:
        self._items: dict[str, TrainingItem] = {}
        self.cache = cache if cache is not None else ArrayCache()

    def add(self, item: TrainingItem) -> None:
        if item.name in self._items:
            raise ValueError(f"training item {item.name!r} already registered")
        self._items[item.name] = item

    def get(self, name: str) -> TrainingItem:
        try:
            return self._items[name]
        except KeyError:
            raise KeyError(
                f"unknown training item {name!r}; "
                f"available: {sorted(self._items)}"
            ) from None

    def subspace(self, name: str, dim: int) -> np.ndarray:
        """A named item's PCA basis, memoised in the library cache."""
        return self.get(name).subspace(dim, cache=self.cache)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, name: str) -> bool:
        return name in self._items
