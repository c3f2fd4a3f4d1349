"""Hessian-based keypoint detection with SURF-style descriptors.

A stand-in for OpenCV's SURF (Section V-A of the paper): interest
points are local maxima of the determinant of the Hessian computed at
a small Gaussian scale; each keypoint carries a 64-dimensional
descriptor built, as in SURF, from a 4x4 grid of sub-regions around
the point with ``(sum dx, sum |dx|, sum dy, sum |dy|)`` per sub-region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.vision.image import image_gradients

DESCRIPTOR_DIM = 64
_GRID = 4  # 4x4 sub-regions
_SUBREGION = 3  # pixels per sub-region side


@dataclass(frozen=True)
class Keypoint:
    """An interest point with its response strength."""

    x: float
    y: float
    response: float


def hessian_response(image: np.ndarray, sigma: float = 1.6) -> np.ndarray:
    """Determinant-of-Hessian response map at scale ``sigma``."""
    image = np.asarray(image, dtype=float)
    lxx = ndimage.gaussian_filter(image, sigma, order=(0, 2))
    lyy = ndimage.gaussian_filter(image, sigma, order=(2, 0))
    lxy = ndimage.gaussian_filter(image, sigma, order=(1, 1))
    return lxx * lyy - (0.9 * lxy) ** 2


def detect_keypoints(
    image: np.ndarray,
    max_keypoints: int = 200,
    sigma: float = 1.6,
    threshold_rel: float = 0.05,
) -> list[Keypoint]:
    """Find local maxima of the Hessian response.

    Args:
        image: Grayscale float image.
        max_keypoints: Keep at most this many, strongest first.
        sigma: Gaussian scale of the Hessian.
        threshold_rel: Responses below ``threshold_rel * max_response``
            are discarded.

    Returns:
        Keypoints sorted by decreasing response.
    """
    response = np.abs(hessian_response(image, sigma))
    if response.size == 0:
        return []
    # The absolute floor rejects numerical noise on near-constant
    # images, where the relative threshold alone would admit peaks.
    floor = max(threshold_rel * response.max(), 1e-7)
    local_max = ndimage.maximum_filter(response, size=3)
    peak_mask = (response == local_max) & (response > floor)
    # Keep a border so descriptors fit.
    margin = _GRID * _SUBREGION // 2 + 1
    peak_mask[:margin, :] = False
    peak_mask[-margin:, :] = False
    peak_mask[:, :margin] = False
    peak_mask[:, -margin:] = False
    ys, xs = np.nonzero(peak_mask)
    points = [
        Keypoint(x=float(x), y=float(y), response=float(response[y, x]))
        for y, x in zip(ys, xs)
    ]
    points.sort(key=lambda kp: -kp.response)
    return points[:max_keypoints]


def _sum9_pairwise(blocks: np.ndarray) -> np.ndarray:
    """Numpy's unrolled pairwise sum over the last axis (9 elements).

    Matches ``.sum()`` over a 3x3 sub-region of one keypoint's patch —
    both the strided gradient slice and the contiguous ``np.abs``
    temporary reduce through numpy's 8-accumulator base case:
    ``(((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))) + a8``.
    """
    b = blocks
    return (
        ((b[..., 0] + b[..., 1]) + (b[..., 2] + b[..., 3]))
        + ((b[..., 4] + b[..., 5]) + (b[..., 6] + b[..., 7]))
    ) + b[..., 8]


def describe_keypoints(
    gx: np.ndarray, gy: np.ndarray, keypoints: list[Keypoint]
) -> np.ndarray:
    """SURF-style 64-dim descriptors from precomputed gradients.

    Gathers every keypoint's patch with one sliding-window view and
    computes all sub-region sums as elementwise passes, replicating
    the reduction orders of a per-keypoint loop exactly — each row is
    bit-identical to the scalar oracle in
    ``tests/test_batched_equivalence.py``.
    """
    if not keypoints:
        return np.zeros((0, DESCRIPTOR_DIM))
    half = _GRID * _SUBREGION // 2
    size = _GRID * _SUBREGION
    ys = np.array([int(kp.y) for kp in keypoints]) - half
    xs = np.array([int(kp.x) for kp in keypoints]) - half
    windows_x = np.lib.stride_tricks.sliding_window_view(gx, (size, size))
    windows_y = np.lib.stride_tricks.sliding_window_view(gy, (size, size))
    patches_x = windows_x[ys, xs]
    patches_y = windows_y[ys, xs]

    def blocks_of(patches: np.ndarray) -> np.ndarray:
        """(n, 12, 12) patches -> (n, 16, 9) sub-region elements in
        the row-major order the scalar loop reads them."""
        b = patches.reshape(-1, _GRID, _SUBREGION, _GRID, _SUBREGION)
        b = b.transpose(0, 1, 3, 2, 4)
        return b.reshape(-1, _GRID * _GRID, _SUBREGION * _SUBREGION)

    bx = blocks_of(patches_x)
    by = blocks_of(patches_y)
    desc = np.stack(
        [
            _sum9_pairwise(bx),
            _sum9_pairwise(np.abs(bx)),
            _sum9_pairwise(by),
            _sum9_pairwise(np.abs(by)),
        ],
        axis=-1,
    ).reshape(-1, DESCRIPTOR_DIM)
    for i in range(len(desc)):
        # Per-row scalar norms: np.linalg.norm(vec) and the axis=1
        # variant differ in the last ulp, and the scalar one is pinned.
        norm = np.linalg.norm(desc[i])
        if norm > 1e-12:
            desc[i] = desc[i] / norm
    return desc


def extract_descriptors(
    image: np.ndarray, max_keypoints: int = 200
) -> np.ndarray:
    """Detect keypoints and return an ``(n, 64)`` descriptor matrix."""
    image = np.asarray(image, dtype=float)
    keypoints = detect_keypoints(image, max_keypoints=max_keypoints)
    if not keypoints:
        return np.zeros((0, DESCRIPTOR_DIM))
    gx, gy = image_gradients(image)
    return describe_keypoints(gx, gy, keypoints)
