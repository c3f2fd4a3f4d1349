"""Colour features of detected areas.

The paper extracts the Mean Color feature [26] of each detected area,
PCA-reduces it, and ships 40 dimensions (160 bytes) per object to the
controller for cross-camera re-identification.  Our synthetic frames
are grayscale, so the equivalent is a 40-dimensional grid of block
means over the detected area (a 5x8 layout mirroring a person's aspect
ratio), which captures the clothing-shade layout the renderer paints.
"""

from __future__ import annotations

import numpy as np

from repro.vision.image import crop, resize_bilinear

COLOR_FEATURE_DIM = 40
_GRID_COLS = 5
_GRID_ROWS = 8


def mean_color_feature(
    image: np.ndarray, bbox: tuple[float, float, float, float]
) -> np.ndarray:
    """Compute the 40-dim mean-colour descriptor of a detected area.

    Args:
        image: Full frame (grayscale float).
        bbox: ``(x, y, w, h)`` in the same pixel coordinates as the
            image.

    Returns:
        Length-40 vector of block means; zeros when the crop is empty.
    """
    patch = crop(image, bbox)
    if patch.size == 0:
        return np.zeros(COLOR_FEATURE_DIM)
    # Normalise to a fixed grid so the feature is size-invariant.
    canon = resize_bilinear(patch, _GRID_COLS * 4, _GRID_ROWS * 4)
    feature = np.empty(COLOR_FEATURE_DIM)
    idx = 0
    for row in range(_GRID_ROWS):
        for col in range(_GRID_COLS):
            block = canon[row * 4 : (row + 1) * 4, col * 4 : (col + 1) * 4]
            feature[idx] = block.mean()
            idx += 1
    return feature


def synthetic_color_base(shade: float) -> np.ndarray:
    """The noise-free synthetic colour feature of a shade: body blocks
    carry the clothing shade, the top row the lighter head band."""
    feature = np.full(COLOR_FEATURE_DIM, shade)
    feature[:_GRID_COLS] = min(1.0, shade + 0.25)
    return feature


def synthetic_color_feature(
    shade: float,
    rng: np.random.Generator,
    noise: float = 0.03,
) -> np.ndarray:
    """Colour feature derived directly from a pedestrian's shade.

    Used on the fast path where detections are generated from object
    views without re-cropping the rendered frame: the same structure
    :func:`mean_color_feature` recovers from painted frames, plus
    per-view noise.
    """
    # minimum(maximum(...)) is np.clip's own elementwise arithmetic
    # without the dispatch overhead of the fromnumeric wrapper.
    return np.minimum(
        1.0,
        np.maximum(
            0.0,
            synthetic_color_base(shade)
            + rng.normal(scale=noise, size=COLOR_FEATURE_DIM),
        ),
    )

