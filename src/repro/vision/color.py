"""Colour features of detected areas.

The paper extracts the Mean Color feature [26] of each detected area,
PCA-reduces it, and ships 40 dimensions (160 bytes) per object to the
controller for cross-camera re-identification.  Our synthetic frames
are grayscale, so the equivalent is a 40-dimensional grid of block
shades over the detected area: 5 columns by 8 rows, row-major, a layout
mirroring a person's aspect ratio.  Detections carry it synthetically,
derived from the pedestrian's clothing shade rather than cropped from
the rendered frame.
"""

from __future__ import annotations

import numpy as np

COLOR_FEATURE_DIM = 40
_GRID_COLS = 5  # x 8 rows = COLOR_FEATURE_DIM


def synthetic_color_base(shade: float) -> np.ndarray:
    """The noise-free synthetic colour feature of a shade: body blocks
    carry the clothing shade, the top row the lighter head band."""
    feature = np.full(COLOR_FEATURE_DIM, shade)
    feature[:_GRID_COLS] = min(1.0, shade + 0.25)
    return feature


def finish_color(
    noise: np.ndarray, scale: float | np.ndarray, base: np.ndarray
) -> np.ndarray:
    """A colour feature from its raw standard-normal ``noise``:
    ``noise · scale + base`` clamped to ``[0, 1]``, in a fresh array.

    Elementwise, with the operations of :func:`synthetic_color_feature`
    (whose ``rng.normal(scale=s)`` is ``s`` times a standard normal), so
    equal noise gives equal bits, one row at a time or a stack of rows
    with a column of scales.
    """
    color = noise * scale
    color += base
    np.maximum(color, 0.0, out=color)
    np.minimum(color, 1.0, out=color)
    return color


def synthetic_color_feature(
    shade: float,
    rng: np.random.Generator,
    noise: float = 0.03,
) -> np.ndarray:
    """Colour feature derived directly from a pedestrian's shade.

    The 5x8 block grid, row-major: the top row of 5 blocks holds the
    lighter head band, the 7 rows below it the clothing shade.  Each
    block gets independent Gaussian noise of scale ``noise`` and is
    clipped to ``[0, 1]``.
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

