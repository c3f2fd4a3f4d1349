"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets.base import FrameRecord, VideoSegment
from repro.datasets.groundtruth import (
    ground_truth_boxes,
    persons_in_any_view,
    persons_in_view,
)
from repro.datasets.synthetic import DATASET_SPECS, make_dataset


class TestDatasetSpecs:
    def test_paper_datasets_present(self):
        # The paper's three datasets plus the night extension (#4).
        assert {1, 2, 3} <= set(DATASET_SPECS)

    def test_ground_truth_cadence_matches_paper(self):
        assert DATASET_SPECS[1].gt_every == 25
        assert DATASET_SPECS[2].gt_every == 10
        assert DATASET_SPECS[3].gt_every == 25

    def test_people_counts(self):
        assert DATASET_SPECS[1].num_people == 6
        assert 4 <= DATASET_SPECS[2].num_people <= 6
        assert DATASET_SPECS[3].num_people == 8

    def test_train_split_at_1000(self):
        for spec in DATASET_SPECS.values():
            assert spec.train_end == 1000
            assert spec.total_frames == 3000

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            make_dataset(9)


class TestSyntheticDataset:
    def test_four_cameras(self, dataset1):
        assert len(dataset1.camera_ids) == 4

    def test_has_ground_truth_every_25(self, dataset1):
        assert dataset1.has_ground_truth(0)
        assert dataset1.has_ground_truth(250)
        assert not dataset1.has_ground_truth(251)

    def test_frames_materialise_all_cameras(self, dataset1):
        records = dataset1.frames(0, 2)
        assert len(records) == 2
        assert set(records[0].observations) == set(dataset1.camera_ids)

    def test_only_ground_truth_filter(self, dataset1):
        records = dataset1.frames(0, 100, only_ground_truth=True)
        assert [r.frame_index for r in records] == [0, 25, 50, 75]

    def test_deterministic_regeneration(self):
        a = make_dataset(1)
        b = make_dataset(1)
        rec_a = a.frames(50, 51)[0]
        rec_b = b.frames(50, 51)[0]
        cam = a.camera_ids[0]
        va = rec_a.observation(cam).objects
        vb = rec_b.observation(cam).objects
        assert len(va) == len(vb)
        for x, y in zip(va, vb):
            assert x.bbox == y.bbox

    def test_replay_after_rewind(self, dataset1):
        """Requesting an earlier frame re-simulates deterministically."""
        first = dataset1.frames(30, 31)[0]
        dataset1.frames(60, 61)
        dataset1._frame_cache.clear()
        again = dataset1.frames(30, 31)[0]
        cam = dataset1.camera_ids[0]
        assert (
            first.observation(cam).objects[0].bbox
            == again.observation(cam).objects[0].bbox
        )

    def test_training_and_test_segments(self, dataset1):
        train = dataset1.training_segment()
        test = dataset1.test_segment()
        assert train.start_frame == 0
        assert train.end_frame == 1000
        assert test.start_frame == 1000
        assert all(f.frame_index < 1000 for f in train.frames)
        assert all(f.frame_index >= 1000 for f in test.frames)

    def test_ground_homographies_invert_projection(self, dataset1):
        homographies = dataset1.ground_homographies()
        camera = dataset1.cameras[0]
        ground = np.array([3.0, 4.0])
        uv = camera.project(np.array([3.0, 4.0, 0.0]))
        back = homographies[camera.camera_id].apply(uv)
        np.testing.assert_allclose(back, ground, atol=1e-6)

    def test_bad_frame_range_raises(self, dataset1):
        with pytest.raises(ValueError):
            dataset1.frames(10, 5)

    def test_cache_disabled(self):
        ds = make_dataset(1)
        ds.cache_frames = False
        ds.frames(0, 1)
        assert ds._frame_cache == {}


class TestVideoSegment:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            VideoSegment(name="x", start_frame=5, end_frame=3, frames=[])

    def test_ground_truth_frames(self, dataset1):
        segment = dataset1.segment(0, 60)
        gt = [f.frame_index for f in segment.frames if f.has_ground_truth]
        assert gt == [0, 25, 50]


class TestGroundTruthHelpers:
    def test_boxes_match_objects(self, dataset1):
        record = dataset1.frames(0, 1)[0]
        obs = record.observation(dataset1.camera_ids[0])
        boxes = ground_truth_boxes(obs)
        assert len(boxes) == len(obs.objects)

    def test_occluded_can_be_excluded(self, dataset1):
        record = dataset1.frames(0, 1)[0]
        obs = record.observation(dataset1.camera_ids[0])
        full = ground_truth_boxes(obs, include_occluded=True)
        visible = ground_truth_boxes(obs, include_occluded=False)
        assert len(visible) <= len(full)

    def test_persons_in_any_view_superset(self, dataset1):
        record = dataset1.frames(0, 1)[0]
        union = persons_in_any_view(record.observations)
        for camera_id in dataset1.camera_ids:
            single = persons_in_view(record.observation(camera_id))
            assert single <= union

    def test_frame_record_unknown_camera(self, dataset1):
        record = dataset1.frames(0, 1)[0]
        with pytest.raises(KeyError):
            record.observation("nope")
