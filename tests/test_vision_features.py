"""Tests for the combined frame-feature pipeline."""

import numpy as np
import pytest

from repro.vision.bow import BagOfWords
from repro.vision.features import FrameFeatureExtractor, build_vocabulary
from repro.vision.keypoints import DESCRIPTOR_DIM


@pytest.fixture(scope="module")
def fitted_bow():
    rng = np.random.default_rng(4)
    descriptors = rng.normal(size=(400, DESCRIPTOR_DIM))
    return BagOfWords(vocabulary_size=50, rng=rng).fit(descriptors)


class TestFrameFeatureExtractor:
    def test_dimension_combines_hog_and_bow(self, fitted_bow, rng):
        extractor = FrameFeatureExtractor(fitted_bow)
        feature = extractor.extract(rng.uniform(size=(96, 128)))
        assert feature.shape == (3780 + 50,)

    def test_paper_dimension_with_400_words(self):
        """3780 HOG + 400 BoW = 4180, the paper's 16 KB frame vector."""
        assert BagOfWords().vocabulary_size == 400

    def test_extract_video_stacks(self, fitted_bow, rng):
        extractor = FrameFeatureExtractor(fitted_bow)
        frames = [rng.uniform(size=(64, 80)) for _ in range(3)]
        stack = extractor.extract_video(frames)
        assert stack.shape == (3, 3780 + 50)

    def test_extract_video_rejects_empty(self, fitted_bow):
        with pytest.raises(ValueError):
            FrameFeatureExtractor(fitted_bow).extract_video([])


class TestBuildVocabulary:
    def test_builds_from_textured_frames(self, rng):
        frames = [rng.uniform(size=(64, 64)) for _ in range(4)]
        bow = build_vocabulary(frames, vocabulary_size=30, rng=rng)
        assert bow._kmeans.centroids.shape == (30, DESCRIPTOR_DIM)

    def test_rejects_featureless_frames(self, rng):
        frames = [np.zeros((40, 40)) for _ in range(3)]
        with pytest.raises(ValueError):
            build_vocabulary(frames, vocabulary_size=10, rng=rng)

    def test_all_empty_error_names_frame_count(self, rng):
        frames = [np.zeros((40, 40)) for _ in range(3)]
        with pytest.raises(ValueError, match="all 3 vocabulary training"):
            build_vocabulary(frames, vocabulary_size=10, rng=rng)

    def test_empty_frame_logs_warning_with_index(self, rng, caplog):
        frames = [
            rng.uniform(size=(64, 64)),
            np.zeros((40, 40)),  # featureless: dropped with a warning
            rng.uniform(size=(64, 64)),
        ]
        with caplog.at_level("WARNING", logger="repro.vision.features"):
            bow = build_vocabulary(frames, vocabulary_size=10, rng=rng)
        assert bow._kmeans.centroids.shape == (10, DESCRIPTOR_DIM)
        messages = [r.getMessage() for r in caplog.records]
        assert any("frame 1" in m for m in messages)

    def test_textured_frames_log_nothing(self, rng, caplog):
        frames = [rng.uniform(size=(64, 64)) for _ in range(2)]
        with caplog.at_level("WARNING", logger="repro.vision.features"):
            build_vocabulary(frames, vocabulary_size=10, rng=rng)
        assert not caplog.records
