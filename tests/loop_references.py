"""The loop implementations the vectorised HOG and k-means kernels
replaced, kept as oracles for the equivalence tests."""

import numpy as np

from repro.vision.hog import (
    BLOCK_CELLS,
    CELL_SIZE,
    NUM_BINS,
    _binned_gradients,
    _prepare_window,
)


def cell_histograms_reference(image: np.ndarray) -> np.ndarray:
    """Per-cell loop over the binned gradients."""
    magnitude, lower_bin, upper_bin, frac = _binned_gradients(image)
    h, w = image.shape
    cells_y, cells_x = h // CELL_SIZE, w // CELL_SIZE
    hist = np.zeros((cells_y, cells_x, NUM_BINS))
    for cy in range(cells_y):
        row = slice(cy * CELL_SIZE, (cy + 1) * CELL_SIZE)
        for cx in range(cells_x):
            col = slice(cx * CELL_SIZE, (cx + 1) * CELL_SIZE)
            mag = magnitude[row, col].ravel()
            lo = lower_bin[row, col].ravel()
            hi = upper_bin[row, col].ravel()
            fr = frac[row, col].ravel()
            np.add.at(hist[cy, cx], lo, mag * (1 - fr))
            np.add.at(hist[cy, cx], hi, mag * fr)
    return hist


def normalise_blocks_reference(hist: np.ndarray) -> np.ndarray:
    """Per-block loop L2-Hys normalisation, stride one cell."""
    cells_y, cells_x, _ = hist.shape
    blocks_y = cells_y - BLOCK_CELLS + 1
    blocks_x = cells_x - BLOCK_CELLS + 1
    out = []
    for by in range(blocks_y):
        for bx in range(blocks_x):
            block = hist[by : by + BLOCK_CELLS, bx : bx + BLOCK_CELLS].ravel()
            norm = np.linalg.norm(block) + 1e-6
            block = block / norm
            block = np.minimum(block, 0.2)
            norm = np.linalg.norm(block) + 1e-6
            out.append(block / norm)
    return np.concatenate(out)


def hog_descriptor_reference(
    image: np.ndarray, resize: bool = True
) -> np.ndarray:
    """The pre-vectorisation HOG pipeline."""
    image = _prepare_window(image, resize)
    return normalise_blocks_reference(cell_histograms_reference(image))


def update_centroids_reference(
    k: int, data: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Per-centroid loop Lloyd update: member means, empty clusters
    unchanged."""
    new_centroids = np.array(centroids)
    for idx in range(k):
        members = data[labels == idx]
        if len(members) > 0:
            new_centroids[idx] = members.mean(axis=0)
    return new_centroids
