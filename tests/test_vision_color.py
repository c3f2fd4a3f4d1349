"""Tests for colour features."""

import numpy as np
import pytest

from repro.vision.color import COLOR_FEATURE_DIM, synthetic_color_feature


class TestSyntheticColorFeature:
    def test_matches_shade(self, rng):
        feat = synthetic_color_feature(0.4, rng, noise=0.0)
        assert feat.shape == (COLOR_FEATURE_DIM,) == (40,)
        # Body blocks carry the shade; head row is brighter.
        assert feat[5:].mean() == pytest.approx(0.4, abs=1e-9)
        assert feat[:5].mean() == pytest.approx(0.65, abs=1e-9)

    def test_same_person_features_close(self, rng):
        a = synthetic_color_feature(0.3, rng)
        b = synthetic_color_feature(0.3, rng)
        c = synthetic_color_feature(0.8, rng)
        assert np.linalg.norm(a - b) < np.linalg.norm(a - c)

    def test_in_unit_range(self, rng):
        feat = synthetic_color_feature(0.95, rng, noise=0.2)
        assert feat.min() >= 0.0
        assert feat.max() <= 1.0
