"""Detection substrate.

The paper runs four pedestrian detectors (HOG, ACF, C4, LSVM) on
smartphone camera sensors.  Here each detector is a calibrated
simulation: it scores every visible pedestrian (and clutter-driven
false-positive candidates) through an algorithm-specific response
model — sensitivity to occlusion, pixel size and contrast differs per
algorithm — with score distributions fitted so that a genuine
threshold sweep reproduces the per-(algorithm, dataset) operating
points of Tables II-IV.  EECS treats detectors as black boxes
emitting scored bounding boxes, as the paper does: every detector here
is a calibrated :class:`SimulatedDetector`, and no pixel-level
detector is implemented.
"""

from repro.detection.base import (
    BoundingBox,
    Detection,
    DetectionColumns,
)
from repro.detection.detectors import (
    ALGORITHM_NAMES,
    SimulatedDetector,
    make_detector,
    make_detector_suite,
)
from repro.detection.metrics import (
    DetectionCounts,
    ScoredFrame,
    best_threshold,
    f_score,
    match_detections,
    precision_recall,
    sweep_thresholds,
)
from repro.detection.profiles import ResponseProfile, get_profile
from repro.detection.scores import ScoreCalibrator

__all__ = [
    "BoundingBox",
    "Detection",
    "DetectionColumns",
    "ALGORITHM_NAMES",
    "SimulatedDetector",
    "make_detector",
    "make_detector_suite",
    "DetectionCounts",
    "ScoredFrame",
    "best_threshold",
    "f_score",
    "match_detections",
    "precision_recall",
    "sweep_thresholds",
    "ResponseProfile",
    "get_profile",
    "ScoreCalibrator",
]
