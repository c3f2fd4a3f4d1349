"""Activity observations from assessment metadata.

The predictors learn from telemetry the EECS protocol already
collects: during an assessment period every woken camera runs all
affordable algorithms and uploads detection metadata.  This module
reduces one camera's slice of that metadata to the two scalars the
regressor consumes — measured activity (detections per assessment
frame) and the mean calibrated detection score.

The functions are duck-typed against
:class:`~repro.core.selection.AssessmentData`'s read API (``frames``,
``algorithms_for``, ``detections``) so this layer depends only on
:mod:`repro.core`'s value shapes, not the selection machinery.
"""

from __future__ import annotations

import math


def camera_activity(
    assessment, camera_id: str
) -> tuple[float, float] | None:
    """One camera's ``(activity, mean_score)`` over an assessment.

    Activity is the per-frame detection count under the camera's most
    sensitive assessed algorithm (max across algorithms, so a cheap
    detector's misses don't mask a scene the good detector sees),
    averaged over the assessment frames.  The score is the mean
    calibrated probability across every assessed detection, with the
    same NaN fallback the ranking step uses.

    Returns ``None`` when the camera was not assessed this round
    (skipped, quarantined or out of budget) — a sleeping camera
    produces no observation, only probes refresh its regressor.
    """
    algorithms = assessment.algorithms_for(camera_id)
    if not algorithms or assessment.num_frames == 0:
        return None
    activity = 0.0
    score_sum = 0.0
    score_n = 0
    for frame_idx in range(assessment.num_frames):
        per_frame = 0
        for algorithm in algorithms:
            detections = assessment.detections(
                frame_idx, camera_id, algorithm
            )
            per_frame = max(per_frame, len(detections))
            for det in detections:
                p = det.probability
                if math.isnan(p):
                    p = min(max(det.score, 0.0), 1.0)
                score_sum += p
                score_n += 1
        activity += per_frame
    activity /= assessment.num_frames
    mean_score = score_sum / score_n if score_n else 0.0
    return activity, mean_score
