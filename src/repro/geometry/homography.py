"""Planar homography application.

EECS maps each camera's image plane to the shared ground plane and uses
those homographies online to re-identify the same object across views
(Section IV-C).  The homographies come from camera calibration, as the
paper's datasets ship them; this module applies them and wraps them in
a small :class:`Homography` with composition and inversion.
"""

from __future__ import annotations

import numpy as np


class HomographyError(ValueError):
    """Raised when a matrix is not a usable 3x3 homography."""


def apply_homography(H: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 3x3 homography to ``(2,)`` or ``(n, 2)`` points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    homo = np.column_stack([pts, np.ones(len(pts))])
    mapped = (H @ homo.T).T
    with np.errstate(divide="ignore", invalid="ignore"):
        out = mapped[:, :2] / mapped[:, 2:3]
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


class Homography:
    """A 3x3 planar projective mapping with convenience operations."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (3, 3):
            raise HomographyError(f"expected 3x3 matrix, got {matrix.shape}")
        if abs(np.linalg.det(matrix)) < 1e-15:
            raise HomographyError("homography matrix is singular")
        self.matrix = matrix / matrix[2, 2] if abs(matrix[2, 2]) > 1e-12 else matrix

    def apply(self, points: np.ndarray) -> np.ndarray:
        return apply_homography(self.matrix, points)

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.matrix))

    def compose(self, other: "Homography") -> "Homography":
        """Return the mapping that applies ``other`` first, then ``self``."""
        return Homography(self.matrix @ other.matrix)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Homography(det={np.linalg.det(self.matrix):.3g})"
