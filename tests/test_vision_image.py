"""Tests for basic image operations."""

import numpy as np
import pytest

from repro.vision.image import image_gradients, resize_bilinear


class TestResizeBilinear:
    def test_identity_when_same_size(self, rng):
        img = rng.uniform(size=(20, 30))
        out = resize_bilinear(img, 30, 20)
        np.testing.assert_allclose(out, img)

    def test_output_shape(self, rng):
        img = rng.uniform(size=(33, 47))
        out = resize_bilinear(img, 64, 128)
        assert out.shape == (128, 64)

    def test_constant_image_stays_constant(self):
        img = np.full((10, 10), 0.7)
        out = resize_bilinear(img, 23, 17)
        np.testing.assert_allclose(out, 0.7)

    def test_preserves_value_range(self, rng):
        img = rng.uniform(size=(16, 16))
        out = resize_bilinear(img, 40, 40)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_downsample_then_mean_close(self, rng):
        img = rng.uniform(size=(64, 64))
        out = resize_bilinear(img, 8, 8)
        assert abs(out.mean() - img.mean()) < 0.05

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4)), 0, 5)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4, 3)), 8, 8)


class TestGradients:
    def test_horizontal_ramp(self):
        img = np.tile(np.arange(10.0), (5, 1))
        gx, gy = image_gradients(img)
        np.testing.assert_allclose(gx[:, 1:-1], 1.0)
        np.testing.assert_allclose(gy, 0.0, atol=1e-12)

    def test_vertical_ramp(self):
        img = np.tile(np.arange(8.0)[:, None], (1, 6))
        gx, gy = image_gradients(img)
        np.testing.assert_allclose(gy[1:-1, :], 1.0)
        np.testing.assert_allclose(gx, 0.0, atol=1e-12)

    def test_constant_image_zero_gradient(self):
        gx, gy = image_gradients(np.full((6, 6), 3.0))
        np.testing.assert_allclose(gx, 0.0)
        np.testing.assert_allclose(gy, 0.0)
