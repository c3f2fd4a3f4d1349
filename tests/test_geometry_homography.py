"""Tests for planar homographies."""

import math

import numpy as np
import pytest

from repro.geometry.camera import CameraIntrinsics, CameraPose, PinholeCamera
from repro.geometry.homography import Homography, HomographyError


def random_homography(rng) -> np.ndarray:
    h = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    h[2, 2] = 1.0
    return h


class TestHomographyClass:
    def test_inverse_round_trip(self, rng):
        h = Homography(random_homography(rng))
        pts = rng.uniform(0, 50, size=(6, 2))
        back = h.inverse().apply(h.apply(pts))
        np.testing.assert_allclose(back, pts, atol=1e-8)

    def test_compose_applies_right_first(self, rng):
        a = Homography(random_homography(rng))
        b = Homography(random_homography(rng))
        pt = np.array([3.0, 4.0])
        np.testing.assert_allclose(
            a.compose(b).apply(pt), a.apply(b.apply(pt)), atol=1e-8
        )

    def test_identity(self):
        pt = np.array([5.0, 6.0])
        np.testing.assert_allclose(Homography(np.eye(3)).apply(pt), pt)

    def test_rejects_singular_matrix(self):
        with pytest.raises(HomographyError):
            Homography(np.zeros((3, 3)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(HomographyError):
            Homography(np.eye(4))


class TestBetweenCameras:
    def _camera(self, yaw, x, y):
        return PinholeCamera(
            CameraIntrinsics(focal_px=320, width=360, height=288),
            CameraPose(x=x, y=y, z=2.5, yaw=yaw, pitch=0.25),
        )

    def test_transfers_ground_points(self):
        cam_a = self._camera(math.pi / 4, -2, -2)
        cam_b = self._camera(3 * math.pi / 4, 10, -2)
        # image_a -> ground -> image_b, as the matcher chains the
        # calibrated per-camera ground homographies.
        h = Homography(cam_b.ground_homography()).compose(
            Homography(cam_a.ground_homography()).inverse()
        )
        ground = np.array([4.0, 4.0, 0.0])
        uv_a = cam_a.project(ground)
        uv_b = cam_b.project(ground)
        np.testing.assert_allclose(h.apply(uv_a), uv_b, atol=1e-6)
