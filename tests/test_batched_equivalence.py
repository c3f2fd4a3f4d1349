"""Equivalence oracles for the batched/vectorised fast paths.

Each optimised path in the detection pipeline keeps its original
one-at-a-time implementation as a pinned reference
(``detect_reference``, ``describe_keypoint``, ``group_reference``);
these tests assert the fast paths reproduce the references — bitwise
where the refactor preserves the arithmetic, structurally where only
the gating norm differs by design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_dataset
from repro.detection.base import BoundingBox, Detection
from repro.detection.detectors import make_detector_suite


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


class TestDescriptorEquivalence:
    def test_describe_keypoints_matches_scalar(self, rng):
        from repro.vision.image import image_gradients
        from repro.vision.keypoints import (
            describe_keypoint,
            describe_keypoints,
            detect_keypoints,
        )

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
