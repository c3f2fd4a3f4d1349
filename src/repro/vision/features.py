"""Combined frame features for video comparison.

Section V-A: each frame is represented by its 3780-dim HOG descriptor
concatenated with its 400-bin bag-of-words histogram — a fixed
4180-dimensional vector (~16 KB) regardless of image size.  These per-
frame vectors are what the camera sensors upload to the controller
for the domain-adaptation similarity computation.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable

import numpy as np

from repro.vision.bow import BagOfWords
from repro.vision.hog import hog_descriptor
from repro.vision.keypoints import extract_descriptors

logger = logging.getLogger(__name__)


class FrameFeatureExtractor:
    """HOG ++ BoW frame features, sharing one visual vocabulary."""

    def __init__(self, bow: BagOfWords) -> None:
        self.bow = bow

    def extract(self, image: np.ndarray) -> np.ndarray:
        """Feature vector of a single frame."""
        hog = hog_descriptor(image)
        words = self.bow.transform_image(image)
        return np.concatenate([hog, words])

    def extract_video(self, frames: list[np.ndarray]) -> np.ndarray:
        """Stack of per-frame features, shape ``(k, dim)``."""
        if not frames:
            raise ValueError("extract_video needs at least one frame")
        return np.stack([self.extract(frame) for frame in frames])


def build_vocabulary(
    training_frames: Iterable[np.ndarray],
    vocabulary_size: int = 400,
    rng: np.random.Generator | None = None,
) -> BagOfWords:
    """Fit the shared visual vocabulary from training frames.

    ``training_frames`` is read once, in order, so it may be a
    generator that renders each frame as it is needed.  Frames that
    yield no keypoint descriptors are skipped with a warning naming the
    frame index; if *every* frame comes back empty the vocabulary (and
    the PCA pipeline downstream) cannot be built, so that case raises
    immediately instead of failing later with an opaque shape error.
    """
    stacks = [extract_descriptors(frame) for frame in training_frames]
    kept = []
    for index, stack in enumerate(stacks):
        if len(stack) == 0:
            logger.warning(
                "vocabulary training frame %d yielded no keypoint "
                "descriptors; skipping it",
                index,
            )
        else:
            kept.append(stack)
    if not kept:
        raise ValueError(
            f"all {len(stacks)} vocabulary training frames yielded empty "
            "descriptor stacks; cannot build a visual vocabulary "
            "(frames may be blank or featureless)"
        )
    bow = BagOfWords(vocabulary_size=vocabulary_size, rng=rng)
    return bow.fit(np.vstack(kept))
