"""Vectorised HOG vs the reference loop implementation.

The vectorised kernel must agree with the original per-cell /
per-block loops to 1e-9 on arbitrary images, including the
minimum-size edge case (one block: ``CELL_SIZE * BLOCK_CELLS`` per
side).
"""

import numpy as np
import pytest

from repro.vision.hog import (
    BLOCK_CELLS,
    CELL_SIZE,
    cell_histograms,
    hog_descriptor,
)
from tests.loop_references import (
    cell_histograms_reference,
    hog_descriptor_reference,
)

MIN_SIDE = CELL_SIZE * BLOCK_CELLS  # 16: exactly one block


class TestHogEquivalence:
    @pytest.mark.parametrize(
        "shape",
        [
            (MIN_SIDE, MIN_SIDE),  # minimum size: a single block
            (64, 128),  # canonical window transposed orientation
            (128, 64),  # canonical window
            (80, 100),
            (120, 160),
            (17, 31),  # not cell-aligned: trailing pixels dropped
        ],
    )
    def test_descriptor_matches_reference(self, shape, rng):
        image = rng.uniform(size=shape)
        fast = hog_descriptor(image, resize=False)
        slow = hog_descriptor_reference(image, resize=False)
        assert fast.shape == slow.shape
        np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("shape", [(MIN_SIDE, MIN_SIDE), (90, 70)])
    def test_descriptor_matches_reference_with_resize(self, shape, rng):
        image = rng.uniform(size=shape)
        fast = hog_descriptor(image, resize=True)
        slow = hog_descriptor_reference(image, resize=True)
        assert fast.shape == (3780,)
        np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)

    def test_cell_histograms_match_reference(self, rng):
        image = rng.uniform(size=(64, 128))
        np.testing.assert_allclose(
            cell_histograms(image),
            cell_histograms_reference(image),
            atol=1e-9,
            rtol=0,
        )

    def test_constant_image(self):
        image = np.full((MIN_SIDE, MIN_SIDE), 0.5)
        np.testing.assert_allclose(
            hog_descriptor(image, resize=False),
            hog_descriptor_reference(image, resize=False),
            atol=1e-9,
            rtol=0,
        )

    def test_reference_rejects_tiny_image_too(self):
        tiny = np.zeros((MIN_SIDE - 1, MIN_SIDE))
        with pytest.raises(ValueError):
            hog_descriptor(tiny, resize=False)
        with pytest.raises(ValueError):
            hog_descriptor_reference(tiny, resize=False)

    def test_block_count_tracks_cells(self, rng):
        image = rng.uniform(size=(40, 56))  # 5x7 cells -> 4x6 blocks
        desc = hog_descriptor(image, resize=False)
        cells_y, cells_x = 40 // CELL_SIZE, 56 // CELL_SIZE
        blocks = (cells_y - BLOCK_CELLS + 1) * (cells_x - BLOCK_CELLS + 1)
        assert desc.shape == (blocks * BLOCK_CELLS * BLOCK_CELLS * 9,)
