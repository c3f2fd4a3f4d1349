"""Equivalence oracles for the batched/vectorised fast paths.

Each optimised path in the detection pipeline keeps its original
one-at-a-time implementation as a pinned reference
(``detect_reference``, ``group_reference``, and here the one-keypoint
descriptor and the per-detection ``BoundingBox.iou`` greedy matcher);
these tests assert the fast paths reproduce the references — bitwise
where the refactor preserves the arithmetic, structurally where only
the gating norm differs by design.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import make_dataset
from repro.detection.base import BoundingBox, Detection
from repro.detection.detectors import make_detector_suite
from repro.detection.metrics import ScoredFrame, greedy_matches
from repro.vision.color import COLOR_FEATURE_DIM


def _detection_signature(detections: list[Detection], color: bool = True):
    return [
        (d.bbox, d.score, d.camera_id, d.frame_index, d.algorithm,
         tuple(d.color_feature) if color else None, d.truth_id)
        for d in detections
    ]


class TestDetectorBatchEquivalence:
    def test_detect_matches_reference(self):
        """The vectorised scoring path is the pinned model, bit for bit,
        on every dataset, keeping every candidate (as offline training
        does) and at the profile threshold (as deployment does)."""
        checked = 0
        for number in (1, 2, 3, 4):
            dataset = make_dataset(number)
            detectors = make_detector_suite(dataset.environment)
            for record in dataset.training_segment().frames[:3]:
                for camera_id in dataset.camera_ids:
                    observation = record.observation(camera_id)
                    for name, detector in detectors.items():
                        for threshold in (None, detector.profile.threshold):
                            entropy = [2017, record.frame_index, checked]
                            fast = detector.detect(
                                observation,
                                np.random.default_rng(entropy),
                                threshold,
                            )
                            reference = detector.detect_reference(
                                observation,
                                np.random.default_rng(entropy),
                                threshold,
                            )
                            assert _detection_signature(fast) == (
                                _detection_signature(reference)
                            ), (
                                f"{name} drifted from detect_reference on "
                                f"dataset {number} at threshold {threshold}"
                            )
                            checked += 1
        assert checked > 0

    def test_column_draw_matches_reference(self):
        """The column draw that offline training reads describes the
        pinned model's detections bit for bit — scores, boxes, truth
        ids and finished colours, in the same order — and leaves the
        generator where the reference does.  Every algorithm, datasets
        1-4, every eighth training frame of every camera, keeping every
        candidate (training) and at the profile threshold."""
        checked = 0
        for number in (1, 2, 3, 4):
            dataset = make_dataset(number)
            detectors = make_detector_suite(dataset.environment)
            for record in dataset.training_segment().frames[::8]:
                for camera_id in dataset.camera_ids:
                    observation = record.observation(camera_id)
                    for name, detector in detectors.items():
                        for threshold in (None, detector.profile.threshold):
                            entropy = [number, record.frame_index, checked]
                            rng = np.random.default_rng(entropy)
                            ref_rng = np.random.default_rng(entropy)
                            columns = detector.draw(
                                observation, rng, threshold
                            )
                            reference = detector.detect_reference(
                                observation, ref_rng, threshold
                            )
                            where = (
                                f"{name} on dataset {number} frame "
                                f"{record.frame_index} {camera_id} at "
                                f"threshold {threshold}"
                            )
                            assert list(columns.scores) == [
                                d.score for d in reference
                            ], where
                            assert list(columns.boxes) == [
                                d.bbox.as_tuple() for d in reference
                            ], where
                            assert list(columns.truth_ids) == [
                                d.truth_id for d in reference
                            ], where
                            assert np.array_equal(
                                columns.colors(),
                                np.array(
                                    [d.color_feature for d in reference]
                                ).reshape(-1, COLOR_FEATURE_DIM),
                            ), where
                            assert rng.bit_generator.state == (
                                ref_rng.bit_generator.state
                            ), where
                            checked += 1
        assert checked > 0

    def test_detect_batch_matches_sequential_detect(self, runner1):
        """Batch seeding and grouping tasks by algorithm change nothing
        per task, at ``threshold=None`` (offline training) and at the
        library thresholds (deployment), for the whole batch and for
        any split into contiguous chunks.  Every colour feature is its
        own contiguous 40-element array, not a view into a larger
        draw."""
        from repro.detection.batch import DetectionTask, run_batch

        engine = runner1
        records = engine.dataset.frames(1000, 1100, only_ground_truth=True)
        tasks = []
        for index, record in enumerate(records[:3]):
            for camera_id in engine.dataset.camera_ids:
                item = engine.library.get(f"T-{camera_id}")
                for name in sorted(engine.detectors):
                    for threshold in (None, item.profile(name).threshold):
                        tasks.append(
                            DetectionTask(
                                algorithm=name,
                                observation=record.observation(camera_id),
                                entropy=(2017, record.frame_index, index),
                                threshold=threshold,
                            )
                        )
        sequential = [
            engine.detectors[t.algorithm].detect(
                t.observation, t.make_rng(), threshold=t.threshold
            )
            for t in tasks
        ]
        rng = np.random.default_rng(11)
        cuts = sorted(rng.choice(len(tasks), size=5, replace=False))
        third = -(-len(tasks) // 3)
        splits = [
            [tasks],
            [tasks[i : i + third] for i in range(0, len(tasks), third)],
            [tasks[a:b] for a, b in zip([0, *cuts], [*cuts, len(tasks)])],
        ]
        for chunks in splits:
            batched = [
                output
                for chunk in chunks
                for output in run_batch(engine.detectors, chunk)
            ]
            assert len(batched) == len(sequential)
            for fast, slow in zip(batched, sequential):
                assert _detection_signature(fast, color=False) == (
                    _detection_signature(slow, color=False)
                )
                for det, ref in zip(fast, slow):
                    color = det.color_feature
                    assert np.array_equal(color, ref.color_feature)
                    assert color.base is None
                    assert color.flags.c_contiguous
                    assert color.shape == (40,)
                    assert color.dtype == np.float64


def _greedy_matches_oracle(detections, ground_truth, iou_threshold):
    """The per-detection matcher :func:`greedy_matches` replaced:
    in decreasing score order (ties in input order), each detection
    claims the available truth with the highest ``BoundingBox.iou``
    (the lowest index among equals) if that IoU is positive and at
    least ``iou_threshold``."""
    available = list(range(len(ground_truth)))
    matched = []
    for det in sorted(detections, key=lambda d: -d.score):
        best_iou = 0.0
        best_idx = None
        for idx in available:
            iou = det.bbox.iou(ground_truth[idx])
            if iou > best_iou:
                best_iou = iou
                best_idx = idx
        claims = best_idx is not None and best_iou >= iou_threshold
        if claims:
            available.remove(best_idx)
        matched.append(claims)
    return matched


def _det(box: BoundingBox, score: float) -> Detection:
    return Detection(
        bbox=box, score=score, camera_id="c", frame_index=0, algorithm="HOG"
    )


#: Coordinates and sizes whose ratios include exact IoUs such as 0.4
#: (a 10x10 box over a 10x4 one), zero-area boxes (two of which have
#: ``union <= 0``) and disjoint, touching and nested pairs.
_values = st.sampled_from([0.0, 2.0, 4.0, 5.0, 6.0, 10.0, 20.0])
_boxes = st.builds(BoundingBox, _values, _values, _values, _values)
_scores = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_frame_detections = st.lists(
    st.builds(_det, _boxes, _scores), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(
    detections=_frame_detections,
    truths=st.lists(_boxes, max_size=5),
    iou_threshold=st.sampled_from([0.0, 0.1, 0.4, 0.7, 1.0]),
)
@example(
    detections=[_det(BoundingBox(0.0, 0.0, 10.0, 10.0), 1.0)],
    truths=[BoundingBox(0.0, 0.0, 10.0, 4.0)],
    iou_threshold=0.4,
)
@example(
    detections=[
        _det(BoundingBox(0.0, 0.0, 0.0, 0.0), 0.5),
        _det(BoundingBox(0.0, 0.0, 10.0, 10.0), 0.5),
    ],
    truths=[BoundingBox(0.0, 0.0, 0.0, 0.0), BoundingBox(0.0, 0.0, 10.0, 4.0)],
    iou_threshold=0.4,
)
@example(detections=[], truths=[BoundingBox(0.0, 0.0, 5.0, 5.0)],
         iou_threshold=0.4)
@example(detections=[_det(BoundingBox(0.0, 0.0, 5.0, 5.0), 1.0)], truths=[],
         iou_threshold=0.4)
def test_array_matcher_equals_per_detection_oracle(
    detections, truths, iou_threshold
):
    """The IoU-matrix matcher makes the per-detection loop's decisions,
    in score order, on every frame."""
    frame = ScoredFrame.from_detections(detections, truths)
    matched = greedy_matches(frame.boxes, frame.truths, iou_threshold)
    assert matched.tolist() == _greedy_matches_oracle(
        detections, truths, iou_threshold
    )


def test_iou_exactly_at_threshold_matches():
    """A 10x10 detection over a 10x4 truth has IoU exactly 0.4."""
    box = BoundingBox(0.0, 0.0, 10.0, 10.0)
    truth = BoundingBox(0.0, 0.0, 10.0, 4.0)
    assert box.iou(truth) == 0.4
    frame = ScoredFrame.from_detections([_det(box, 1.0)], [truth])
    assert greedy_matches(frame.boxes, frame.truths, 0.4).tolist() == [True]
    above = np.nextafter(0.4, 1.0)
    assert greedy_matches(frame.boxes, frame.truths, above).tolist() == [
        False
    ]


def describe_keypoint(gx, gy, keypoint, grid=4, subregion=3):
    """The one-keypoint SURF-style descriptor: a 4x4 grid of 3x3-pixel
    sub-regions, each summarised by (sum dx, sum |dx|, sum dy,
    sum |dy|), then L2-normalised."""
    half = grid * subregion // 2
    cy, cx = int(keypoint.y), int(keypoint.x)
    patch_gx = gx[cy - half : cy + half, cx - half : cx + half]
    patch_gy = gy[cy - half : cy + half, cx - half : cx + half]
    desc = np.zeros((grid, grid, 4))
    for sy in range(grid):
        for sx in range(grid):
            rows = slice(sy * subregion, (sy + 1) * subregion)
            cols = slice(sx * subregion, (sx + 1) * subregion)
            dx = patch_gx[rows, cols]
            dy = patch_gy[rows, cols]
            desc[sy, sx] = [
                dx.sum(),
                np.abs(dx).sum(),
                dy.sum(),
                np.abs(dy).sum(),
            ]
    vec = desc.ravel()
    norm = np.linalg.norm(vec)
    if norm > 1e-12:
        vec = vec / norm
    return vec


class TestDescriptorEquivalence:
    def test_describe_keypoints_matches_scalar(self, rng):
        from repro.vision.image import image_gradients
        from repro.vision.keypoints import describe_keypoints, detect_keypoints

        for _ in range(5):
            image = rng.random((96, 128))
            keypoints = detect_keypoints(image, max_keypoints=50)
            if not keypoints:
                continue
            gx, gy = image_gradients(image)
            stacked = describe_keypoints(gx, gy, keypoints)
            for row, keypoint in zip(stacked, keypoints):
                scalar = describe_keypoint(gx, gy, keypoint)
                assert np.array_equal(row, scalar)


class TestGroupingEquivalence:
    def _random_detections(self, matcher, rng, count):
        cameras = list(matcher.image_to_ground)
        detections = []
        for i in range(count):
            w = float(rng.uniform(8, 20))
            h = float(rng.uniform(20, 50))
            detections.append(
                Detection(
                    bbox=BoundingBox(
                        x=float(rng.uniform(0, 140)),
                        y=float(rng.uniform(0, 90)),
                        w=w,
                        h=h,
                    ),
                    score=float(rng.uniform(0.1, 3.0)),
                    camera_id=cameras[int(rng.integers(len(cameras)))],
                    frame_index=1000,
                    algorithm="HOG",
                    color_feature=rng.normal(size=40),
                    truth_id=None,
                )
            )
        return detections

    def test_group_matches_reference(self, runner1, rng):
        """Same memberships and camera sets; centroids agree to float
        tolerance (the fast path's gating norm is scalar by design)."""
        matcher = runner1.matcher
        for trial in range(20):
            detections = self._random_detections(
                matcher, rng, count=int(rng.integers(2, 25))
            )
            fast = matcher.group(detections)
            reference = matcher.group_reference(detections)
            fast_members = [
                [id(d) for d in g.detections] for g in fast
            ]
            ref_members = [
                [id(d) for d in g.detections] for g in reference
            ]
            assert fast_members == ref_members, f"trial {trial}"
            for gf, gr in zip(fast, reference):
                assert gf.ground_point == pytest.approx(
                    gr.ground_point, rel=1e-9, abs=1e-9
                )
