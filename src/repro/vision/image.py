"""Basic image operations on float grayscale arrays."""

from __future__ import annotations

import numpy as np


def resize_bilinear(image: np.ndarray, width: int, height: int) -> np.ndarray:
    """Resize a 2-D float image with bilinear interpolation.

    Args:
        image: ``(h, w)`` array.
        width: Target width.
        height: Target height.

    Returns:
        ``(height, width)`` array.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected 2-D image, got shape {image.shape}")
    if width < 1 or height < 1:
        raise ValueError("target size must be positive")
    src_h, src_w = image.shape
    if (src_h, src_w) == (height, width):
        return np.array(image)

    # Sample positions in source coordinates (pixel-centre aligned).
    ys = (np.arange(height) + 0.5) * src_h / height - 0.5
    xs = (np.arange(width) + 0.5) * src_w / width - 0.5
    ys = np.clip(ys, 0, src_h - 1)
    xs = np.clip(xs, 0, src_w - 1)

    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]

    top = image[np.ix_(y0, x0)] * (1 - wx) + image[np.ix_(y0, x1)] * wx
    bottom = image[np.ix_(y1, x0)] * (1 - wx) + image[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def image_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients ``(gx, gy)`` with replicated borders."""
    image = np.asarray(image, dtype=float)
    gx = np.empty_like(image)
    gy = np.empty_like(image)
    gx[:, 1:-1] = (image[:, 2:] - image[:, :-2]) / 2.0
    gx[:, 0] = image[:, 1] - image[:, 0]
    gx[:, -1] = image[:, -1] - image[:, -2]
    gy[1:-1, :] = (image[2:, :] - image[:-2, :]) / 2.0
    gy[0, :] = image[1, :] - image[0, :]
    gy[-1, :] = image[-1, :] - image[-2, :]
    return gx, gy
