"""EECS core: the energy-efficient camera-coordination framework.

This package is the paper's contribution (Section IV).  The central
controller (a) profiles every detection algorithm on every training
video offline, (b) matches each camera's uploaded features to the
closest training item via domain adaptation to rank algorithms per
camera, (c) greedily selects the smallest camera subset whose fused
detections meet the desired global accuracy, and (d) downgrades
selected cameras to cheaper algorithms whenever the accuracy
requirement still holds — minimising energy subject to
``D = [D_n, D_p]`` and per-camera budgets ``c(A_j) + C_j <= B_j``.
"""

from repro.core.accuracy import (
    DesiredAccuracy,
    GlobalAccuracy,
    estimate_global_accuracy,
)
from repro.core.calibration import (
    AlgorithmProfile,
    TrainingItem,
    TrainingLibrary,
    profile_algorithm,
    score_frames,
)
from repro.core.config import EECSConfig
from repro.core.controller import CameraState, EECSController, SelectionDecision
from repro.core.ranking import best_affordable, efficiency_candidates
from repro.core.selection import AssessmentData, SelectionEngine

__all__ = [
    "DesiredAccuracy",
    "GlobalAccuracy",
    "estimate_global_accuracy",
    "AlgorithmProfile",
    "TrainingItem",
    "TrainingLibrary",
    "profile_algorithm",
    "score_frames",
    "EECSConfig",
    "CameraState",
    "EECSController",
    "SelectionDecision",
    "best_affordable",
    "efficiency_candidates",
    "AssessmentData",
    "SelectionEngine",
]
