"""Tests for the HOG descriptor."""

import numpy as np
import pytest

from repro.vision.hog import hog_descriptor


class TestHogDescriptor:
    def test_canonical_dimension(self, rng):
        img = rng.uniform(size=(120, 160))
        desc = hog_descriptor(img)
        assert desc.shape == (3780,)  # the paper's frame feature size

    def test_non_negative(self, rng):
        desc = hog_descriptor(rng.uniform(size=(64, 64)))
        assert np.all(desc >= 0)

    def test_l2_hys_clipping(self, rng):
        desc = hog_descriptor(rng.uniform(size=(64, 64)))
        # After clipping at 0.2 and renormalising, entries stay modest.
        assert desc.max() <= 0.3

    def test_constant_image_is_zero_safe(self):
        desc = hog_descriptor(np.full((64, 128), 0.5))
        assert np.all(np.isfinite(desc))
        np.testing.assert_allclose(desc, 0.0, atol=1e-6)

    def test_deterministic(self, rng):
        img = rng.uniform(size=(80, 100))
        np.testing.assert_array_equal(hog_descriptor(img), hog_descriptor(img))

    def test_vertical_vs_horizontal_edges_differ(self):
        vert = np.zeros((64, 128))
        vert[:, 32:] = 1.0
        horiz = np.zeros((64, 128))
        horiz[32:, :] = 1.0
        d_v = hog_descriptor(vert, resize=False)
        d_h = hog_descriptor(horiz, resize=False)
        assert np.linalg.norm(d_v - d_h) > 0.5

    def test_brightness_invariance(self, rng):
        img = rng.uniform(size=(64, 64))
        d1 = hog_descriptor(img)
        d2 = hog_descriptor(img * 0.5)  # gradients scale, blocks renormalise
        np.testing.assert_allclose(d1, d2, atol=1e-6)

    def test_rejects_tiny_image_without_resize(self):
        with pytest.raises(ValueError):
            hog_descriptor(np.zeros((4, 4)), resize=False)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            hog_descriptor(np.zeros((8, 8, 3)))

    def test_similar_images_have_similar_descriptors(self, rng):
        img = rng.uniform(size=(96, 128))
        noisy = np.clip(img + rng.normal(scale=0.01, size=img.shape), 0, 1)
        other = rng.uniform(size=(96, 128))
        d = hog_descriptor(img)
        assert np.linalg.norm(d - hog_descriptor(noisy)) < np.linalg.norm(
            d - hog_descriptor(other)
        )
