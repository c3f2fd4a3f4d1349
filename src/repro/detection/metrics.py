"""Detection accuracy metrics: precision, recall, f_score, sweeps.

Matches detections to ground-truth boxes greedily by IoU (highest
score first) and accumulates true/false positives and misses; a
threshold sweep then finds the f_score-maximising cut-off ``d_t`` the
paper uses per (algorithm, training video) pair (Section VI-A).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.detection.base import BoundingBox, Detection

DEFAULT_IOU_THRESHOLD = 0.4


@dataclass
class DetectionCounts:
    """Accumulated detection outcomes."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def f_score(self) -> float:
        return f_score(self.recall, self.precision)

    def add(self, other: "DetectionCounts") -> "DetectionCounts":
        return DetectionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
        )


def f_score(recall: float, precision: float) -> float:
    """The harmonic mean the paper balances precision and recall with."""
    if recall + precision <= 0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


def _greedy_matches(
    detections: list[Detection],
    ground_truth: list[BoundingBox],
    iou_threshold: float,
) -> Iterator[tuple[Detection, bool]]:
    """Greedy IoU matching, one decision at a time.

    Yields each detection in decreasing score order (ties keep their
    input order) with whether it claimed a truth box.  A decision
    depends only on the detections yielded before it.
    """
    available = list(range(len(ground_truth)))
    for det in sorted(detections, key=lambda d: -d.score):
        best_iou = 0.0
        best_idx = None
        for idx in available:
            iou = det.bbox.iou(ground_truth[idx])
            if iou > best_iou:
                best_iou = iou
                best_idx = idx
        matched = best_idx is not None and best_iou >= iou_threshold
        if matched:
            available.remove(best_idx)
        yield det, matched


def match_detections(
    detections: list[Detection],
    ground_truth: list[BoundingBox],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> DetectionCounts:
    """Greedy IoU matching of one frame's detections to its truth boxes.

    Each ground-truth box absorbs at most one detection; detections
    are considered in decreasing score order.
    """
    tp = sum(
        matched
        for _, matched in _greedy_matches(
            detections, ground_truth, iou_threshold
        )
    )
    return DetectionCounts(
        tp=tp, fp=len(detections) - tp, fn=len(ground_truth) - tp
    )


def precision_recall(
    frames: list[tuple[list[Detection], list[BoundingBox]]],
    threshold: float,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> DetectionCounts:
    """Accumulate counts over frames, applying a score cut-off.

    Args:
        frames: Pairs of (all scored detections, ground-truth boxes).
        threshold: Minimum score to keep a detection.
    """
    total = DetectionCounts()
    for detections, truths in frames:
        kept = [d for d in detections if d.score >= threshold]
        total = total.add(match_detections(kept, truths, iou_threshold))
    return total


def sweep_thresholds(
    frames: list[tuple[list[Detection], list[BoundingBox]]],
    num_steps: int = 40,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> list[tuple[float, DetectionCounts]]:
    """Evaluate counts across a range of score thresholds.

    The candidate thresholds span the observed score range; returns
    (threshold, counts) pairs in ascending threshold order, equal to
    ``precision_recall(frames, t)`` at every threshold ``t``.

    One matching pass per frame serves every threshold: a cut-off
    ``score >= t`` keeps a prefix of the decreasing-score order (a tie
    group is kept or dropped whole), and no greedy decision depends on
    a later detection, so the kept detections match exactly as they do
    in the full pass.  ``tp(t)`` and ``fp(t)`` then count the matched
    and unmatched scores ``>= t``.

    Raises:
        ValueError: if a score is NaN or infinite: it has no place in
            the score order, and the thresholds spanning it would be
            NaN or infinite (a NaN ``d_t`` keeps every candidate).
    """
    scores = np.array(
        [d.score for detections, _ in frames for d in detections]
    )
    if scores.size == 0:
        return []
    finite = np.isfinite(scores)
    if not finite.all():
        bad = float(scores[~finite][0])
        raise ValueError(
            f"cannot sweep thresholds over non-finite score {bad!r}"
        )
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo < 1e-12:
        thresholds = [lo]
    else:
        thresholds = list(np.linspace(lo, hi, num_steps))
    tp_scores: list[float] = []
    fp_scores: list[float] = []
    truths = 0
    for detections, ground_truth in frames:
        truths += len(ground_truth)
        for det, matched in _greedy_matches(
            detections, ground_truth, iou_threshold
        ):
            (tp_scores if matched else fp_scores).append(det.score)
    tp_at = _count_at_least(tp_scores, thresholds)
    fp_at = _count_at_least(fp_scores, thresholds)
    return [
        (t, DetectionCounts(tp=tp, fp=fp, fn=truths - tp))
        for t, tp, fp in zip(thresholds, tp_at, fp_at)
    ]


def _count_at_least(
    values: list[float], thresholds: list[float]
) -> list[int]:
    """How many ``values`` are ``>= t``, for each threshold ``t``
    (sorts ``values`` in place)."""
    values.sort()
    return [len(values) - bisect_left(values, t) for t in thresholds]


def best_threshold(
    frames: list[tuple[list[Detection], list[BoundingBox]]],
    num_steps: int = 40,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> tuple[float, DetectionCounts]:
    """The f_score-maximising cut-off ``d_t`` and its counts."""
    sweep = sweep_thresholds(frames, num_steps, iou_threshold)
    if not sweep:
        raise ValueError("no detections to sweep thresholds over")
    return max(sweep, key=lambda item: item[1].f_score)
