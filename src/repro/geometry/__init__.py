"""Multi-view geometry substrate.

Provides the pinhole-camera model and planar homographies.  Each
camera's image-to-ground homography comes from its calibration; EECS
uses them to project detections between overlapping camera views
(Section IV-C of the paper).
"""

from repro.geometry.camera import CameraIntrinsics, CameraPose, PinholeCamera
from repro.geometry.homography import Homography

__all__ = [
    "CameraIntrinsics",
    "CameraPose",
    "PinholeCamera",
    "Homography",
]
