"""Tests for detection metrics: matching, precision/recall, sweeps."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.base import BoundingBox, Detection
from repro.detection.metrics import (
    DetectionCounts,
    ScoredFrame,
    best_threshold,
    f_score,
    match_detections,
    precision_recall,
    sweep_thresholds,
)


def det(x, y, w, h, score):
    return Detection(
        bbox=BoundingBox(x, y, w, h),
        score=score,
        camera_id="c",
        frame_index=0,
        algorithm="HOG",
    )


def scored(frames):
    """(detections, truths) pairs as the metrics' frame columns."""
    return [ScoredFrame.from_detections(d, g) for d, g in frames]


class TestFScore:
    def test_balanced(self):
        assert f_score(0.5, 0.5) == pytest.approx(0.5)

    def test_harmonic_mean(self):
        assert f_score(1.0, 0.5) == pytest.approx(2 / 3)

    def test_zero_when_both_zero(self):
        assert f_score(0.0, 0.0) == 0.0

    def test_paper_example(self):
        # Table II LSVM: recall 0.89, precision 0.90 -> 0.89
        assert f_score(0.89, 0.90) == pytest.approx(0.895, abs=0.01)


class TestDetectionCounts:
    def test_precision_recall(self):
        c = DetectionCounts(tp=8, fp=2, fn=4)
        assert c.precision == pytest.approx(0.8)
        assert c.recall == pytest.approx(8 / 12)

    def test_empty_counts(self):
        c = DetectionCounts()
        assert c.precision == 0.0
        assert c.recall == 0.0
        assert c.f_score == 0.0

    def test_add(self):
        total = DetectionCounts(1, 2, 3).add(DetectionCounts(4, 5, 6))
        assert (total.tp, total.fp, total.fn) == (5, 7, 9)


class TestMatchDetections:
    def test_perfect_match(self):
        gt = [BoundingBox(0, 0, 10, 20), BoundingBox(50, 0, 10, 20)]
        detections = [det(0, 0, 10, 20, 1.0), det(50, 0, 10, 20, 0.9)]
        counts = match_detections(detections, gt)
        assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)

    def test_false_positive(self):
        gt = [BoundingBox(0, 0, 10, 20)]
        detections = [det(0, 0, 10, 20, 1.0), det(100, 100, 10, 20, 0.9)]
        counts = match_detections(detections, gt)
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)

    def test_missed_object(self):
        gt = [BoundingBox(0, 0, 10, 20), BoundingBox(50, 0, 10, 20)]
        counts = match_detections([det(0, 0, 10, 20, 1.0)], gt)
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 1)

    def test_each_gt_matched_once(self):
        """Duplicate detections on one object: one TP, rest FP."""
        gt = [BoundingBox(0, 0, 10, 20)]
        detections = [det(0, 0, 10, 20, 1.0), det(1, 1, 10, 20, 0.9)]
        counts = match_detections(detections, gt)
        assert (counts.tp, counts.fp) == (1, 1)

    def test_highest_score_wins_ambiguity(self):
        gt = [BoundingBox(0, 0, 10, 20)]
        weak = det(2, 2, 10, 20, 0.1)
        strong = det(0, 0, 10, 20, 0.9)
        counts = match_detections([weak, strong], gt)
        assert counts.tp == 1

    def test_iou_threshold_respected(self):
        gt = [BoundingBox(0, 0, 10, 10)]
        barely = det(8, 8, 10, 10, 1.0)  # IoU ~ 0.02
        counts = match_detections([barely], gt, iou_threshold=0.4)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)


class TestSweeps:
    def _frames(self):
        gt = [BoundingBox(0, 0, 10, 20), BoundingBox(50, 0, 10, 20)]
        detections = [
            det(0, 0, 10, 20, 0.9),     # TP, high score
            det(50, 0, 10, 20, 0.5),    # TP, mid score
            det(100, 0, 10, 20, 0.3),   # FP, low score
            det(200, 0, 10, 20, 0.2),   # FP, low score
        ]
        return [(detections, gt)]

    def test_precision_recall_at_thresholds(self):
        frames = scored(self._frames())
        high = precision_recall(frames, 0.8)
        assert (high.tp, high.fp, high.fn) == (1, 0, 1)
        low = precision_recall(frames, 0.0)
        assert (low.tp, low.fp, low.fn) == (2, 2, 0)

    def test_sweep_returns_ascending_thresholds(self):
        sweep = sweep_thresholds(scored(self._frames()), num_steps=10)
        thresholds = [t for t, _ in sweep]
        assert thresholds == sorted(thresholds)

    def test_best_threshold_filters_false_positives(self):
        threshold, counts = best_threshold(
            scored(self._frames()), num_steps=30
        )
        # Optimal cut keeps both TPs and drops both FPs.
        assert 0.3 < threshold <= 0.5
        assert counts.f_score == pytest.approx(1.0)

    def test_best_threshold_empty_raises(self):
        with pytest.raises(ValueError):
            best_threshold(scored([([], [])]))

    def test_sweep_empty_detections(self):
        empty = scored([([], [BoundingBox(0, 0, 1, 1)])])
        assert sweep_thresholds(empty) == []
        assert sweep_thresholds([]) == []

    def test_single_threshold_when_all_scores_tie(self):
        frames = self._frames()
        tied = scored([(
            [det(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h, 0.5)
             for d in frames[0][0]],
            frames[0][1],
        )])
        assert sweep_thresholds(tied, num_steps=10) == [
            (0.5, precision_recall(tied, 0.5))
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_is_refused(self, bad):
        frames = self._frames()
        frames[0][0].append(det(300, 0, 10, 20, bad))
        frames = scored(frames)
        message = rf"non-finite score {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            sweep_thresholds(frames)
        with pytest.raises(ValueError, match=message):
            best_threshold(frames)


#: Coarse lattices so boxes overlap (truths with truths too), scores
#: tie, and scores land exactly on the swept thresholds.
_coords = st.integers(0, 6).map(lambda v: 5.0 * v)
_sizes = st.integers(1, 4).map(lambda v: 5.0 * v)
_boxes = st.builds(BoundingBox, _coords, _coords, _sizes, _sizes)
_scores = st.one_of(
    st.integers(0, 4).map(lambda v: v / 4),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_detections = st.lists(
    st.builds(
        lambda box, score: det(box.x, box.y, box.w, box.h, score),
        _boxes,
        _scores,
    ),
    max_size=6,
)
_frames = st.lists(
    st.tuples(_detections, st.lists(_boxes, max_size=4)), max_size=4
)


@settings(max_examples=60, deadline=None)
@given(
    frames=_frames,
    num_steps=st.integers(1, 9),
    iou_threshold=st.sampled_from([0.1, 0.4, 0.7]),
)
def test_sweep_equals_per_threshold_oracle(frames, num_steps, iou_threshold):
    """The single-pass sweep reproduces one pass per threshold exactly
    (filter each frame's Detection list, then match it), and so does
    ``precision_recall``: thresholds, counts and so every ratio."""
    columns = scored(frames)
    sweep = sweep_thresholds(columns, num_steps, iou_threshold)
    scores = [d.score for detections, _ in frames for d in detections]
    if not scores:
        assert sweep == []
        return
    lo, hi = min(scores), max(scores)
    if hi - lo < 1e-12:
        thresholds = [lo]
    else:
        thresholds = list(np.linspace(lo, hi, num_steps))
    oracle = [
        (t, _filter_then_match(frames, t, iou_threshold)) for t in thresholds
    ]
    assert sweep == oracle
    assert [
        (t, precision_recall(columns, t, iou_threshold)) for t in thresholds
    ] == oracle


def _filter_then_match(frames, threshold, iou_threshold):
    total = DetectionCounts()
    for detections, truths in frames:
        kept = [d for d in detections if d.score >= threshold]
        total = total.add(match_detections(kept, truths, iou_threshold))
    return total
