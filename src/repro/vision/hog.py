"""Histogram of oriented gradients (Dalal & Triggs, CVPR 2005).

The paper represents each frame by a 3780-dimensional HOG vector —
exactly the standard 64x128 person-window layout: 8x8-pixel cells,
9 unsigned orientation bins, 2x2-cell blocks with stride one cell
(7 x 15 blocks x 36 values = 3780), block-wise L2-Hys normalisation.

The implementation bins all gradients in a single scatter-add over
flattened (cell, bin) indices and normalises every block at once
through a sliding-window view.  The per-cell / per-block Python loops
it replaced live in ``tests/loop_references.py``, and
``tests/test_hog_equivalence.py`` holds the two to 1e-9.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.vision.image import image_gradients, resize_bilinear

HOG_WINDOW = (64, 128)  # (width, height)
CELL_SIZE = 8
BLOCK_CELLS = 2
NUM_BINS = 9


def _binned_gradients(
    image: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel magnitude, lower/upper bin and interpolation weight."""
    gx, gy = image_gradients(image)
    magnitude = np.hypot(gx, gy)
    # Unsigned orientation in [0, pi).
    orientation = np.mod(np.arctan2(gy, gx), np.pi)
    bin_width = np.pi / NUM_BINS
    bin_pos = orientation / bin_width - 0.5
    lower = np.floor(bin_pos).astype(int)
    frac = bin_pos - lower
    lower_bin = np.mod(lower, NUM_BINS)
    upper_bin = np.mod(lower + 1, NUM_BINS)
    return magnitude, lower_bin, upper_bin, frac


def cell_histograms(image: np.ndarray) -> np.ndarray:
    """Per-cell orientation histograms with bilinear bin interpolation.

    Vectorised: every pixel's two weighted votes are accumulated in
    one pass via ``bincount`` over flattened ``cell * NUM_BINS + bin``
    indices (the unbuffered-scatter semantics of ``np.add.at``, minus
    its per-element overhead).

    Returns an array of shape ``(cells_y, cells_x, NUM_BINS)``.
    """
    magnitude, lower_bin, upper_bin, frac = _binned_gradients(image)
    h, w = image.shape
    cells_y, cells_x = h // CELL_SIZE, w // CELL_SIZE
    valid_h = cells_y * CELL_SIZE
    valid_w = cells_x * CELL_SIZE

    mag = magnitude[:valid_h, :valid_w]
    lo = lower_bin[:valid_h, :valid_w]
    hi = upper_bin[:valid_h, :valid_w]
    fr = frac[:valid_h, :valid_w]

    cell_index = (
        (np.arange(valid_h) // CELL_SIZE)[:, None] * cells_x
        + (np.arange(valid_w) // CELL_SIZE)[None, :]
    )
    base = cell_index * NUM_BINS
    size = cells_y * cells_x * NUM_BINS
    hist = np.bincount(
        (base + lo).ravel(), weights=(mag * (1 - fr)).ravel(), minlength=size
    )
    hist += np.bincount(
        (base + hi).ravel(), weights=(mag * fr).ravel(), minlength=size
    )
    return hist.reshape(cells_y, cells_x, NUM_BINS)


def _normalise_blocks(hist: np.ndarray) -> np.ndarray:
    """L2-Hys normalisation over 2x2-cell blocks, stride one cell.

    All blocks are normalised at once: a sliding-window view exposes
    every ``(BLOCK_CELLS, BLOCK_CELLS, NUM_BINS)`` block without
    copying, then both L2 passes run along the last axis.
    """
    windows = sliding_window_view(
        hist, (BLOCK_CELLS, BLOCK_CELLS), axis=(0, 1)
    )
    # windows: (blocks_y, blocks_x, NUM_BINS, BLOCK_CELLS, BLOCK_CELLS);
    # reorder to (..., cy, cx, bin) so each block ravels exactly like
    # hist[by:by+2, bx:bx+2].ravel() in the reference.
    blocks_y, blocks_x = windows.shape[:2]
    blocks = windows.transpose(0, 1, 3, 4, 2).reshape(
        blocks_y, blocks_x, BLOCK_CELLS * BLOCK_CELLS * NUM_BINS
    )
    norms = np.linalg.norm(blocks, axis=2, keepdims=True) + 1e-6
    blocks = blocks / norms
    blocks = np.minimum(blocks, 0.2)
    norms = np.linalg.norm(blocks, axis=2, keepdims=True) + 1e-6
    return (blocks / norms).ravel()


def _prepare_window(image: np.ndarray, resize: bool) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected 2-D image, got shape {image.shape}")
    if resize:
        image = resize_bilinear(image, HOG_WINDOW[0], HOG_WINDOW[1])
    if image.shape[0] < CELL_SIZE * BLOCK_CELLS or image.shape[1] < CELL_SIZE * BLOCK_CELLS:
        raise ValueError(f"image too small for HOG: {image.shape}")
    return image


def hog_descriptor(image: np.ndarray, resize: bool = True) -> np.ndarray:
    """Compute the 3780-dim HOG descriptor of a grayscale frame.

    Args:
        image: ``(h, w)`` float image.
        resize: When True (default), the frame is first resampled to
            the canonical 64x128 window; pass False only for images
            already at a cell-aligned size.

    Returns:
        1-D float descriptor; 3780 values for the canonical window.
    """
    image = _prepare_window(image, resize)
    return _normalise_blocks(cell_histograms(image))

