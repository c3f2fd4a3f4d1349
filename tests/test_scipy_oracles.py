"""The in-repo numeric kernels match the scipy functions they replace.

Deployments import no scipy: the detectors' normal quantile and the
renderer's background blur are ports of ``scipy.special.ndtri`` and
``scipy.ndimage.gaussian_filter``.  These tests hold each port to the
installed scipy bit for bit, so every golden built on scipy's values
stays valid.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage
from scipy.special import ndtri

import repro.world.renderer as renderer_module
from repro.datasets.synthetic import make_dataset
from repro.detection.detectors import _ndtri
from repro.detection.profiles import _PROFILES
from repro.world.renderer import _gaussian_blur

EXP_MINUS_2 = math.exp(-2.0)
EXP_MINUS_32 = math.exp(-32.0)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    mismatched = np.flatnonzero(actual.view(np.int64) != expected.view(np.int64))
    assert mismatched.size == 0, (
        f"{mismatched.size} of {actual.size} differ; first at flat index "
        f"{mismatched[0]}: {actual.flat[mismatched[0]]!r} != "
        f"{expected.flat[mismatched[0]]!r}"
    )


def check_ndtri(points) -> None:
    points = np.asarray(points, dtype=np.float64)
    assert_bits_equal([_ndtri(float(y)) for y in points], ndtri(points))


class TestNdtri:
    def test_profile_recalls(self):
        check_ndtri(sorted({p.recall for p in _PROFILES.values()}))

    def test_random_points_and_both_tails(self):
        rng = np.random.default_rng(20170605)
        check_ndtri(rng.random(100_000))
        # Lower tail down to ~1e-304 (the P2/Q2 branch), upper tail up
        # to 1 - 1e-15 (mirrored through 1 - y).
        check_ndtri(np.exp(-rng.uniform(2.0, 700.0, 10_000)))
        check_ndtri(-np.expm1(-rng.uniform(2.0, 34.0, 10_000)))

    @pytest.mark.parametrize(
        "edge", [1.0 - EXP_MINUS_2, EXP_MINUS_2, EXP_MINUS_32]
    )
    def test_branch_edges(self, edge):
        below = np.nextafter(edge, 0.0)
        above = np.nextafter(edge, 1.0)
        check_ndtri([
            np.nextafter(below, 0.0), below, edge, above,
            np.nextafter(above, 1.0),
        ])

    def test_extremes(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        check_ndtri([tiny, 1e-300, 0.5, np.nextafter(1.0, 0.0)])

    def test_special_values(self):
        assert _ndtri(0.0) == -math.inf
        assert _ndtri(1.0) == math.inf
        for y in (-0.5, 1.5, -math.inf, math.inf, math.nan):
            assert math.isnan(_ndtri(y))
            assert math.isnan(ndtri(y))


class TestGaussianBlur:
    def test_camera_backgrounds_of_datasets_1_to_4(self, monkeypatch):
        calls = []

        def recording_blur(image, sigma):
            out = _gaussian_blur(image, sigma)
            calls.append((image.copy(), sigma, out))
            return out

        monkeypatch.setattr(renderer_module, "_gaussian_blur", recording_blur)
        cameras = 0
        for number in (1, 2, 3, 4):
            cameras += len(make_dataset(number).cameras)
        assert len(calls) == cameras > 0
        for image, sigma, out in calls:
            assert out.flags.c_contiguous
            assert_bits_equal(out, ndimage.gaussian_filter(image, sigma=sigma))

    @pytest.mark.parametrize(
        "shape,sigma",
        [
            ((120, 160), 1.0),
            ((90, 160), 2.5),
            ((3, 50), 4.0),  # radius 16 > 3 rows: the edges reflect repeatedly
            ((50, 3), 4.0),
            ((2, 2), 1.7),
            ((1, 1), 1.0),
            ((7, 9), 12.3),
        ],
    )
    def test_random_arrays(self, shape, sigma):
        image = np.random.default_rng(shape).normal(size=shape)
        assert_bits_equal(
            _gaussian_blur(image, sigma),
            ndimage.gaussian_filter(image, sigma=sigma),
        )
