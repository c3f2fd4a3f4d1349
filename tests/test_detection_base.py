"""Tests for bounding boxes and detection records."""

import numpy as np
import pytest

from repro.detection.base import BoundingBox, Detection
from repro.energy.communication import METADATA_BYTES_PER_OBJECT


class TestBoundingBox:
    def test_area(self):
        assert BoundingBox(0, 0, 4, 5).area == 20

    def test_bottom_center(self):
        box = BoundingBox(10, 20, 6, 30)
        assert box.bottom_center == (13, 50)

    def test_iou_identical(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.iou(box) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        a = BoundingBox(0, 0, 5, 5)
        b = BoundingBox(10, 10, 5, 5)
        assert a.iou(b) == 0.0

    def test_iou_half_overlap(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 10, 10)
        assert a.iou(b) == pytest.approx(50 / 150)

    def test_iou_symmetric(self):
        a = BoundingBox(0, 0, 8, 12)
        b = BoundingBox(3, 4, 9, 7)
        assert a.iou(b) == pytest.approx(b.iou(a))

    def test_iou_contained(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(2, 2, 5, 5)
        assert outer.iou(inner) == pytest.approx(25 / 100)

    def test_zero_area_box(self):
        a = BoundingBox(0, 0, 0, 0)
        b = BoundingBox(0, 0, 5, 5)
        assert a.iou(b) == 0.0

    def test_rejects_negative_dimensions(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, -1, 5)

    def test_tuple_round_trip(self):
        box = BoundingBox(1.5, 2.5, 3.5, 4.5)
        assert BoundingBox.from_tuple(box.as_tuple()) == box


class TestDetection:
    def _detection(self, truth_id=None):
        return Detection(
            bbox=BoundingBox(0, 0, 10, 20),
            score=0.7,
            camera_id="cam1",
            frame_index=5,
            algorithm="HOG",
            truth_id=truth_id,
        )

    def test_true_positive_flag(self):
        assert self._detection(truth_id=3).is_true_positive
        assert not self._detection().is_true_positive

    def test_metadata_bytes_matches_paper(self):
        """8 B box + 4 B probability + 160 B colour feature = 172 B."""
        det = self._detection()
        assert len(det.color_feature) == 40
        assert METADATA_BYTES_PER_OBJECT == 8 + 4 + 4 * 40 == 172

    def test_probability_defaults_nan(self):
        assert np.isnan(self._detection().probability)
