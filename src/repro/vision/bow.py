"""Bag-of-visual-words frame representation.

As in Section V-A: keypoint descriptors from a set of training videos
are clustered into ``k`` visual words (the paper uses 400, built from
images of the 12 training feeds); any frame is then represented by the
k-bin histogram of its descriptors' nearest words.
"""

from __future__ import annotations

import numpy as np

from repro.vision.keypoints import DESCRIPTOR_DIM, extract_descriptors
from repro.vision.kmeans import KMeans

DEFAULT_VOCABULARY_SIZE = 400


class BagOfWords:
    """A visual vocabulary plus the histogram transform."""

    def __init__(
        self,
        vocabulary_size: int = DEFAULT_VOCABULARY_SIZE,
        rng: np.random.Generator | None = None,
    ) -> None:
        if vocabulary_size < 1:
            raise ValueError("vocabulary_size must be positive")
        self.vocabulary_size = vocabulary_size
        self._kmeans = KMeans(vocabulary_size, rng=rng)
        self._fitted = False

    def fit(self, descriptors: np.ndarray) -> "BagOfWords":
        """Build the vocabulary from an ``(n, 64)`` descriptor stack."""
        descriptors = np.asarray(descriptors, dtype=float)
        if descriptors.ndim != 2 or descriptors.shape[1] != DESCRIPTOR_DIM:
            raise ValueError(
                f"expected (n, {DESCRIPTOR_DIM}) descriptors, "
                f"got {descriptors.shape}"
            )
        if len(descriptors) == 0:
            raise ValueError("cannot fit a vocabulary on zero descriptors")
        self._kmeans.fit(descriptors)
        self._fitted = True
        return self

    def histogram(self, descriptors: np.ndarray) -> np.ndarray:
        """L1-normalised word histogram of a descriptor set."""
        if not self._fitted:
            raise RuntimeError("histogram requested before fit")
        hist = np.zeros(self.vocabulary_size)
        descriptors = np.asarray(descriptors, dtype=float)
        if descriptors.size == 0:
            return hist
        labels = self._kmeans.predict(descriptors)
        np.add.at(hist, labels, 1.0)
        total = hist.sum()
        if total > 0:
            hist = hist / total
        return hist

    def transform_image(self, image: np.ndarray) -> np.ndarray:
        """Keypoints -> descriptors -> word histogram for one frame."""
        return self.histogram(extract_descriptors(image))
