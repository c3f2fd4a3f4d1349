"""Equivalence oracles for the batched/vectorised fast paths.

Each optimised path in the detection pipeline keeps its original
one-at-a-time implementation as a pinned reference
(``detect_reference``, ``describe_keypoint``, ``group_reference``);
these tests assert the fast paths reproduce the references — bitwise
where the refactor preserves the arithmetic, structurally where only
the gating norm differs by design.  The executor tests then assert the
property the batched pipeline rests on: both backends (serial and
the shared-memory process pool) produce bit-identical deployment
results.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig, RunCheckpointer, SimulatedCrash
from repro.datasets.synthetic import make_dataset
from repro.detection.base import BoundingBox, Detection
from repro.detection.detectors import make_detector_suite
from repro.engine.core import DeploymentEngine
from repro.engine.executor import (
    SerialDetectionExecutor,
    SharedFrameStore,
    SharedMemoryDetectionExecutor,
    make_executor,
)


def _shm_entries() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


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
        any split into contiguous chunks (as the shm executor ships
        them).  Every colour feature is its own contiguous 40-element
        array, not a view into a larger draw."""
        from repro.detection.batch import DetectionTask, run_batch
        from repro.engine.executor import _chunk_evenly

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
        splits = [
            [tasks],
            _chunk_evenly(tasks, 3),
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


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("backend", ["shm"])
    def test_backends_match_serial(self, runner1, backend, workers):
        """serial == shm, bit for bit, at any worker count."""
        context = runner1.context
        serial = DeploymentEngine(context, seed=2017).run(
            "full", budget=2.0, start=1000, end=1300
        )
        executor = make_executor(workers)
        assert executor.name == backend
        engine = DeploymentEngine(context, seed=2017, executor=executor)
        try:
            result = engine.run("full", budget=2.0, start=1000, end=1300)
        finally:
            engine.close()
        assert vars(result) == vars(serial), (
            f"{backend} backend with {workers} workers drifted"
        )

    def test_random_specs_agree_across_backends(self, runner1, rng):
        """Property check over random run configurations."""
        context = runner1.context
        for _ in range(3):
            policy = ["all_best", "subset", "full"][int(rng.integers(3))]
            budget = float(rng.choice([1.5, 2.0, 3.0]))
            start = 1000 + int(rng.integers(0, 4)) * 25
            end = start + 200
            baseline = None
            for workers in (1, 2):
                executor = make_executor(workers)
                engine = DeploymentEngine(
                    context, seed=2017, executor=executor
                )
                try:
                    result = engine.run(
                        policy, budget=budget, start=start, end=end
                    )
                finally:
                    engine.close()
                if baseline is None:
                    baseline = result
                else:
                    assert vars(result) == vars(baseline), (
                        f"{executor.name} drifted on {policy} "
                        f"[{start}, {end}) budget {budget}"
                    )


class TestShmCheckpointResume:
    def test_resume_under_shm_matches_uninterrupted(
        self, runner1, tmp_path
    ):
        """Crash mid-run under the shm backend, resume under shm, and
        the completed result is bit-identical to an uninterrupted
        serial run — checkpoints are backend-agnostic."""
        context = runner1.context
        config = dict(budget=2.0, start=1000, end=1500)
        uninterrupted = DeploymentEngine(context, seed=2017).run(
            "full", **config
        )

        crashed = DeploymentEngine(
            context, seed=2017, executor=make_executor(2)
        )
        try:
            with pytest.raises(SimulatedCrash):
                crashed.run(
                    "full",
                    checkpointer=RunCheckpointer(
                        CheckpointConfig(directory=tmp_path, crash_after=0)
                    ),
                    **config,
                )
        finally:
            crashed.close()

        resumed_engine = DeploymentEngine(
            context, seed=2017, executor=make_executor(2)
        )
        try:
            resumed = resumed_engine.run(
                "full",
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, resume=True)
                ),
                **config,
            )
        finally:
            resumed_engine.close()
        assert vars(resumed) == vars(uninterrupted)
        assert not _shm_entries(), "resume leaked shared-memory segments"


class TestSharedFrameStore:
    def test_put_dedupes_by_frame_identity(self, runner1):
        engine = runner1
        record = engine.dataset.frames(1000, 1001)[0]
        camera_id = engine.dataset.camera_ids[0]
        observation = record.observation(camera_id)
        store = SharedFrameStore()
        try:
            first = store.put(observation)
            second = store.put(observation)
            assert first == second
            stats = store.drain_stats()
            assert stats["shm_hits"] == 1
            assert stats["shm_misses"] == 1
            assert stats["shm_segments"] == 1
            # Round-trip: the shared bytes are the frame, exactly.
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=first.segment)
            try:
                view = np.frombuffer(
                    segment.buf,
                    dtype=np.dtype(first.dtype),
                    count=first.count,
                    offset=first.offset,
                ).reshape(first.shape)
                assert np.array_equal(view, observation.image)
                del view
            finally:
                segment.close()
        finally:
            store.close()
        assert not _shm_entries(), "store.close() leaked segments"

    def test_rewind_reuses_segments_in_order(self, runner1):
        record = runner1.dataset.frames(1000, 1001)[0]
        observations = [
            record.observation(camera_id)
            for camera_id in runner1.dataset.camera_ids[:3]
        ]
        frame_bytes = observations[0].image.nbytes
        store = SharedFrameStore(segment_bytes=frame_bytes)
        try:
            first = [store.put(obs) for obs in observations]
            assert store.num_segments == 3
            store.rewind()
            second = [store.put(obs) for obs in observations]
            # Same segments, same offsets: the rewound frames were
            # republished (misses), not looked up (hits).
            assert second == first
            stats = store.drain_stats()
            assert stats["shm_segments"] == 3
            assert stats["shm_hits"] == 0
            assert stats["shm_misses"] == 6
        finally:
            store.close()
        assert not _shm_entries(), "store.close() leaked segments"

    def test_arena_is_sized_by_the_largest_batch(self, runner1):
        """A long run reuses one segment instead of accumulating every
        frame it ever published (7 segments, ~58 MB, without the
        per-batch rewind), and stays bit-identical to serial."""
        window = dict(start=1000, end=6000)
        serial = runner1.run("full", **window)
        executor = SharedMemoryDetectionExecutor(2)
        engine = DeploymentEngine(
            runner1.context, seed=2017, executor=executor
        )
        try:
            result = engine.run("full", **window)
            stats = executor.drain_stats()
            assert stats["shm_segments"] == 1
            # Every dedupe hit is within one batch (assessment runs
            # each algorithm on the same frames), so none is lost.
            assert stats["shm_hits"] == 320
            assert vars(result) == vars(serial)
            engine.run("full", **window)
            assert executor.drain_stats()["shm_segments"] == 1
        finally:
            engine.close()
        assert not _shm_entries(), "executor.close() leaked segments"

    def test_close_is_idempotent(self):
        store = SharedFrameStore(segment_bytes=4096)
        store.close()
        store.close()

    def test_serial_executor_has_no_stats(self):
        assert SerialDetectionExecutor().drain_stats() == {}

    def test_shm_executor_reports_stats(self, runner1):
        engine = runner1
        executor = SharedMemoryDetectionExecutor(2)
        run_engine = DeploymentEngine(
            engine.context, seed=2017, executor=executor
        )
        try:
            run_engine.run("full", budget=2.0, start=1000, end=1100)
            # Assessment runs every algorithm on the same frames, so
            # the store must see hits; the run drains stats into
            # telemetry only when telemetry is attached, so they
            # accumulate here.
            stats = executor.drain_stats()
            assert stats["shm_misses"] > 0
            assert stats["shm_hits"] > 0
        finally:
            run_engine.close()
        assert not _shm_entries(), "executor.close() leaked segments"
