"""Tests for the pinhole camera model."""

import math

import numpy as np
import pytest

from repro.geometry.camera import CameraIntrinsics, CameraPose, PinholeCamera


@pytest.fixture()
def camera():
    intrinsics = CameraIntrinsics(focal_px=320.0, width=360, height=288)
    pose = CameraPose(x=-2.0, y=-2.0, z=2.5, yaw=math.pi / 4, pitch=0.2)
    return PinholeCamera(intrinsics, pose, camera_id="test-cam")


class TestCameraIntrinsics:
    def test_principal_point_defaults_to_center(self):
        k = CameraIntrinsics(focal_px=100, width=200, height=100)
        assert k.cx == 100.0
        assert k.cy == 50.0

    def test_explicit_principal_point_kept(self):
        k = CameraIntrinsics(focal_px=100, width=200, height=100, cx=90, cy=45)
        assert k.cx == 90
        assert k.cy == 45

    def test_matrix_structure(self):
        k = CameraIntrinsics(focal_px=123.0, width=100, height=80)
        m = k.matrix
        assert m[0, 0] == 123.0
        assert m[1, 1] == 123.0
        assert m[2, 2] == 1.0
        assert m[0, 1] == 0.0

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(focal_px=0, width=10, height=10)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(focal_px=10, width=0, height=10)


class TestCameraPoseRotation:
    def test_rotation_is_orthonormal(self):
        pose = CameraPose(x=0, y=0, z=2, yaw=0.7, pitch=0.3)
        r = pose.rotation
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)

    def test_rotation_is_right_handed(self):
        pose = CameraPose(x=0, y=0, z=2, yaw=1.2, pitch=0.25)
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0)

    def test_down_vector_points_downward(self):
        """Positive image y must run towards the ground (z decreasing)."""
        pose = CameraPose(x=0, y=0, z=2, yaw=0.5, pitch=0.2)
        down = pose.rotation[1]
        assert down[2] < 0

    def test_forward_points_along_yaw(self):
        pose = CameraPose(x=0, y=0, z=2, yaw=0.0, pitch=0.0)
        np.testing.assert_allclose(pose.rotation[2], [1, 0, 0], atol=1e-12)


class TestProjection:
    def test_point_on_optical_axis_hits_center(self):
        intrinsics = CameraIntrinsics(focal_px=300, width=400, height=300)
        pose = CameraPose(x=0, y=0, z=1.0, yaw=0.0, pitch=0.0)
        cam = PinholeCamera(intrinsics, pose)
        uv = cam.project(np.array([5.0, 0.0, 1.0]))
        np.testing.assert_allclose(uv, [200.0, 150.0], atol=1e-9)

    def test_higher_points_project_above(self, camera):
        foot = camera.project(np.array([2.0, 2.0, 0.0]))
        head = camera.project(np.array([2.0, 2.0, 1.7]))
        assert head[1] < foot[1]

    def test_point_behind_camera_is_nan(self, camera):
        uv = camera.project(np.array([-10.0, -10.0, 0.0]))
        assert np.all(np.isnan(uv))

    def test_batch_projection_matches_single(self, camera):
        pts = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 1.0]])
        batch = camera.project(pts)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(batch[i], camera.project(p))

    def test_depth_positive_for_visible_points(self, camera):
        assert camera.depth_of(np.array([2.0, 2.0, 0.0])) > 0


class TestGroundHomography:
    def test_matches_projection_for_ground_points(self, camera):
        h = camera.ground_homography()
        for pt in [(1.0, 1.0), (3.0, 2.0), (0.5, 4.0)]:
            uvw = h @ np.array([pt[0], pt[1], 1.0])
            via_h = uvw[:2] / uvw[2]
            direct = camera.project(np.array([pt[0], pt[1], 0.0]))
            np.testing.assert_allclose(via_h, direct, atol=1e-9)

    def test_normalised(self, camera):
        h = camera.ground_homography()
        assert h[2, 2] == pytest.approx(1.0)
