"""Detection accuracy metrics: precision, recall, f_score, sweeps.

Matches detections to ground-truth boxes greedily by IoU (highest
score first) and accumulates true/false positives and misses; a
threshold sweep then finds the f_score-maximising cut-off ``d_t`` the
paper uses per (algorithm, training video) pair (Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.detection.base import BoundingBox, Detection, DetectionColumns

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


class ScoredFrame(NamedTuple):
    """One frame's scored detections as arrays, with its truth boxes.

    Detections run in decreasing score order, tied scores in their
    input order.  Boxes are ``(x, y, w, h)`` rows.
    """

    scores: np.ndarray
    boxes: np.ndarray
    labels: np.ndarray
    truths: np.ndarray

    @classmethod
    def from_columns(
        cls, columns: DetectionColumns, ground_truth: list[BoundingBox]
    ) -> "ScoredFrame":
        """A detector's column draw (already in score order)."""
        return cls(
            scores=np.array(columns.scores, dtype=float),
            boxes=np.array(columns.boxes, dtype=float).reshape(-1, 4),
            labels=np.array(
                [t is not None for t in columns.truth_ids], dtype=bool
            ),
            truths=_box_array(ground_truth),
        )

    @classmethod
    def from_detections(
        cls, detections: list[Detection], ground_truth: list[BoundingBox]
    ) -> "ScoredFrame":
        """Detection objects in any order (sorted here, stably)."""
        ordered = sorted(detections, key=lambda d: -d.score)
        return cls(
            scores=np.array([d.score for d in ordered], dtype=float),
            boxes=_box_array([d.bbox for d in ordered]),
            labels=np.array(
                [d.is_true_positive for d in ordered], dtype=bool
            ),
            truths=_box_array(ground_truth),
        )


def _box_array(boxes: list[BoundingBox]) -> np.ndarray:
    return np.array([b.as_tuple() for b in boxes], dtype=float).reshape(
        -1, 4
    )


def greedy_matches(
    boxes: np.ndarray, truths: np.ndarray, iou_threshold: float
) -> np.ndarray:
    """Greedy IoU matching of ``(n, 4)`` detection boxes, in decreasing
    score order, to ``(m, 4)`` truth boxes: whether each detection
    claims a truth.

    Each detection in turn claims the unclaimed truth box it overlaps
    most (the lowest index among equals) if that IoU is positive and at
    least ``iou_threshold``.  A decision depends only on the detections
    before it, so a score cut-off keeps a prefix whose decisions are
    unchanged.

    The IoU matrix uses :meth:`BoundingBox.iou`'s elementwise
    operations, so every entry is bit-identical to it; only rows with a
    positive IoU can claim anything, and only they run the greedy loop.
    """
    matched = np.zeros(len(boxes), dtype=bool)
    if not matched.size or not truths.size:
        return matched
    x, y, w, h = boxes.T[:, :, None]
    tx, ty, tw, th = truths.T[:, None, :]
    ix = np.maximum(0.0, np.minimum(x + w, tx + tw) - np.maximum(x, tx))
    iy = np.maximum(0.0, np.minimum(y + h, ty + th) - np.maximum(y, ty))
    inter = ix * iy
    union = w * h + tw * th - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    for i in np.flatnonzero((iou > 0.0).any(axis=1)).tolist():
        row = iou[i]
        best = int(row.argmax())
        if row[best] > 0.0 and row[best] >= iou_threshold:
            matched[i] = True
            iou[:, best] = 0.0
    return matched


def match_detections(
    detections: list[Detection],
    ground_truth: list[BoundingBox],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> DetectionCounts:
    """Greedy IoU matching of one frame's detections to its truth boxes.

    Each ground-truth box absorbs at most one detection; detections
    are considered in decreasing score order.
    """
    frame = ScoredFrame.from_detections(detections, ground_truth)
    tp = int(greedy_matches(frame.boxes, frame.truths, iou_threshold).sum())
    return DetectionCounts(
        tp=tp, fp=len(detections) - tp, fn=len(ground_truth) - tp
    )


def precision_recall(
    frames: list[ScoredFrame],
    threshold: float,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> DetectionCounts:
    """Accumulate counts over frames, applying a score cut-off.

    Args:
        frames: Every scored detection of each frame, with its truths.
        threshold: Minimum score to keep a detection.
    """
    total = DetectionCounts()
    for frame in frames:
        kept = frame.boxes[frame.scores >= threshold]
        tp = int(greedy_matches(kept, frame.truths, iou_threshold).sum())
        total = total.add(
            DetectionCounts(
                tp=tp, fp=len(kept) - tp, fn=len(frame.truths) - tp
            )
        )
    return total


def sweep_thresholds(
    frames: list[ScoredFrame],
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
    if not frames:
        return []
    scores = np.concatenate([frame.scores for frame in frames])
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
    matched = np.concatenate([
        greedy_matches(frame.boxes, frame.truths, iou_threshold)
        for frame in frames
    ])
    truths = sum(len(frame.truths) for frame in frames)
    tp_at = _count_at_least(scores[matched], thresholds)
    fp_at = _count_at_least(scores[~matched], thresholds)
    return [
        (t, DetectionCounts(tp=tp, fp=fp, fn=truths - tp))
        for t, tp, fp in zip(thresholds, tp_at, fp_at)
    ]


def _count_at_least(
    values: np.ndarray, thresholds: list[float]
) -> list[int]:
    """How many ``values`` are ``>= t``, for each threshold ``t``."""
    values = np.sort(values)
    below = np.searchsorted(values, thresholds, side="left")
    return (len(values) - below).tolist()


def best_threshold(
    frames: list[ScoredFrame],
    num_steps: int = 40,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> tuple[float, DetectionCounts]:
    """The f_score-maximising cut-off ``d_t`` and its counts."""
    sweep = sweep_thresholds(frames, num_steps, iou_threshold)
    if not sweep:
        raise ValueError("no detections to sweep thresholds over")
    return max(sweep, key=lambda item: item[1].f_score)
