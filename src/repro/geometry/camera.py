"""Pinhole camera model.

The synthetic world lives in a right-handed coordinate system with the
ground plane at ``z = 0`` and ``z`` pointing up.  A camera is described
by intrinsics (focal length, principal point, image size) and a pose
(position plus yaw/pitch).  The model supports projecting world points
to pixels and extracting the ground-plane homography that maps
``(x, y)`` world coordinates on ``z = 0`` to image pixels — the same
construction the evaluation datasets of the paper ship with their
calibration files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CameraIntrinsics:
    """Intrinsic parameters of a pinhole camera.

    Attributes:
        focal_px: Focal length expressed in pixels.
        width: Image width in pixels.
        height: Image height in pixels.
        cx: Principal point x (defaults to image centre).
        cy: Principal point y (defaults to image centre).
    """

    focal_px: float
    width: int
    height: int
    cx: float = float("nan")
    cy: float = float("nan")

    def __post_init__(self) -> None:
        if self.focal_px <= 0:
            raise ValueError(f"focal_px must be positive, got {self.focal_px}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if math.isnan(self.cx):
            object.__setattr__(self, "cx", self.width / 2.0)
        if math.isnan(self.cy):
            object.__setattr__(self, "cy", self.height / 2.0)

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 intrinsic matrix ``K``."""
        return np.array(
            [
                [self.focal_px, 0.0, self.cx],
                [0.0, self.focal_px, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class CameraPose:
    """Extrinsic pose: camera centre in world coordinates plus orientation.

    Attributes:
        x, y, z: Camera centre (metres); ``z`` is the mounting height.
        yaw: Rotation about the world z-axis, radians.  ``yaw = 0`` looks
            along +x.
        pitch: Downward tilt in radians (positive looks down at the
            ground, which is the usual surveillance mounting).
    """

    x: float
    y: float
    z: float
    yaw: float = 0.0
    pitch: float = 0.0

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def rotation(self) -> np.ndarray:
        """World-to-camera rotation matrix.

        Camera frame convention: +z forward (optical axis), +x right,
        +y down, so that projecting with ``K`` lands in standard image
        coordinates with the origin at the top-left.
        """
        cy_, sy = math.cos(self.yaw), math.sin(self.yaw)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        # Forward (optical axis) in world coordinates.
        forward = np.array([cy_ * cp, sy * cp, -sp])
        # Right vector: forward x world-up, horizontal, pointing to the
        # camera's right as seen through the viewfinder.
        right = np.array([sy, -cy_, 0.0])
        # Down vector completes the right-handed triad (positive image
        # y runs towards the ground).
        down = np.cross(forward, right)
        return np.stack([right, down, forward])


class PinholeCamera:
    """A calibrated pinhole camera looking at the ground-plane world."""

    def __init__(
        self,
        intrinsics: CameraIntrinsics,
        pose: CameraPose,
        camera_id: str = "cam",
    ) -> None:
        self.intrinsics = intrinsics
        self.pose = pose
        self.camera_id = camera_id
        self._K = intrinsics.matrix
        self._R = pose.rotation
        self._t = -self._R @ pose.position

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project world points to pixel coordinates.

        Args:
            points: ``(3,)`` or ``(n, 3)`` array of world coordinates.

        Returns:
            ``(2,)`` or ``(n, 2)`` pixel coordinates.  Points behind the
            camera yield ``nan``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cam = (self._R @ pts.T).T + self._t
        depth = cam[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = (self._K @ cam.T).T
            uv = uv[:, :2] / uv[:, 2:3]
        uv[depth <= 1e-9] = np.nan
        if np.asarray(points).ndim == 1:
            return uv[0]
        return uv

    def depth_of(self, points: np.ndarray) -> np.ndarray:
        """Distance along the optical axis for each world point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cam = (self._R @ pts.T).T + self._t
        depth = cam[:, 2]
        if np.asarray(points).ndim == 1:
            return depth[0]
        return depth

    def ground_homography(self) -> np.ndarray:
        """Homography mapping ground-plane ``(x, y, 1)`` to pixels.

        For points with ``z = 0`` the projection reduces to
        ``H = K [r1 r2 t]`` where ``r1, r2`` are the first two columns
        of ``R``.
        """
        H = self._K @ np.column_stack([self._R[:, 0], self._R[:, 1], self._t])
        return H / H[2, 2]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PinholeCamera(id={self.camera_id!r}, "
            f"pos=({self.pose.x:.1f},{self.pose.y:.1f},{self.pose.z:.1f}), "
            f"res={self.intrinsics.width}x{self.intrinsics.height})"
        )
