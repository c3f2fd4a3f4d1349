"""Tests for score-to-probability calibration."""

import numpy as np
import pytest

from repro.detection.scores import ScoreCalibrator


class TestScoreCalibrator:
    def _separable_data(self, rng, n=300):
        tp = rng.normal(loc=2.0, scale=0.5, size=n)
        fp = rng.normal(loc=-1.0, scale=0.5, size=n)
        scores = np.concatenate([tp, fp])
        labels = np.concatenate([np.ones(n), np.zeros(n)])
        return scores, labels

    def test_monotone_increasing(self, rng):
        cal = ScoreCalibrator().fit(*self._separable_data(rng))
        probs = np.array([cal(s) for s in np.linspace(-3, 4, 50)])
        assert np.all(np.diff(probs) >= -1e-12)

    def test_separates_classes(self, rng):
        cal = ScoreCalibrator().fit(*self._separable_data(rng))
        assert cal(3.0) > 0.9
        assert cal(-2.0) < 0.1

    def test_probabilities_in_unit_interval(self, rng):
        cal = ScoreCalibrator().fit(*self._separable_data(rng))
        probs = np.array([cal(s) for s in rng.normal(size=100) * 10])
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)

    def test_overlapping_data_midpoint_near_half(self, rng):
        tp = rng.normal(loc=0.5, size=500)
        fp = rng.normal(loc=-0.5, size=500)
        scores = np.concatenate([tp, fp])
        labels = np.concatenate([np.ones(500), np.zeros(500)])
        cal = ScoreCalibrator().fit(scores, labels)
        assert cal(0.0) == pytest.approx(0.5, abs=0.1)

    def test_single_class_positive(self):
        cal = ScoreCalibrator().fit(np.array([1.0, 2.0]), np.array([1, 1]))
        assert cal(0.0) > 0.9

    def test_single_class_negative(self):
        cal = ScoreCalibrator().fit(np.array([1.0, 2.0]), np.array([0, 0]))
        assert cal(0.0) < 0.1

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ScoreCalibrator().fit(np.zeros(3), np.zeros(4))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            ScoreCalibrator().fit(np.zeros(3), np.array([0, 1, 2]))

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            ScoreCalibrator().fit(np.array([1.0]), np.array([1]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ScoreCalibrator()(0.0)

    def test_calibration_quality(self, rng):
        """Predicted probabilities track empirical frequencies."""
        scores, labels = self._separable_data(rng, n=2000)
        cal = ScoreCalibrator().fit(scores, labels)
        probs = np.array([cal(s) for s in scores])
        mid = (probs > 0.4) & (probs < 0.6)
        if mid.sum() > 20:
            assert labels[mid].mean() == pytest.approx(0.5, abs=0.2)
