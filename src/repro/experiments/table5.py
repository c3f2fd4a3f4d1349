"""Table V: train-vs-test video similarity on the Grassmann manifold.

For each of the 12 video feeds (3 datasets x 4 cameras), extract
HOG ++ BoW frame features from a window of the training segment and
from randomly offset windows of the test segment, then compute the
GFK similarity (Eq. 5) between every training item and every test
item.  The paper's headline result: every test item's most similar
training item is the one from the same dataset and camera (diagonal
dominance), with a visible same-dataset block structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic import SyntheticDataset, make_dataset
from repro.domain_adaptation.similarity import VideoComparator
from repro.vision.features import FrameFeatureExtractor, build_vocabulary


@dataclass
class SimilarityResult:
    """The Table V matrix plus its labels.

    Attributes:
        labels: Video labels ``"T_{d}.{c}"`` in row/column order
            (rows: training items, columns: test items).
        matrix: ``(12, 12)`` mean similarities.
    """

    labels: list[str]
    matrix: np.ndarray

    @property
    def diagonal_accuracy(self) -> float:
        """Fraction of test items whose best match is their own
        training item — 1.0 in the paper."""
        best = np.argmax(self.matrix, axis=0)
        return float(np.mean(best == np.arange(self.matrix.shape[1])))

    def block_means(self) -> np.ndarray:
        """Mean similarity per (train dataset, test dataset) block."""
        n_datasets = len(self.labels) // 4
        out = np.zeros((n_datasets, n_datasets))
        for i in range(n_datasets):
            for j in range(n_datasets):
                out[i, j] = self.matrix[
                    4 * i : 4 * i + 4, 4 * j : 4 * j + 4
                ].mean()
        return out


def _sample_frames(
    dataset: SyntheticDataset,
    camera_id: str,
    start: int,
    end: int,
    count: int,
) -> list[np.ndarray]:
    """Evenly sample ``count`` frame images of one camera."""
    step = max(1, (end - start) // count)
    records = dataset.frames(start, start + step * count, step=step)
    return [r.observation(camera_id).image for r in records]


def similarity_matrix(
    window_frames: int = 20,
    repeats: int = 2,
    subspace_dim: int = 10,
    vocabulary_size: int = 400,
    datasets: tuple[int, ...] = (1, 2, 3),
    seed: int = 11,
) -> SimilarityResult:
    """Compute the Table V similarity matrix.

    Args:
        window_frames: Frames per feature window (the paper uses 100;
            smaller defaults keep the benchmark runtime modest while
            preserving the matrix structure).
        repeats: Random test windows averaged per video (paper: 5).
        subspace_dim: PCA dimension ``beta`` of the GFK comparison.
        vocabulary_size: Visual words in the BoW vocabulary.
        datasets: Which datasets to include (4 cameras each).
        seed: Sampling seed for test-window offsets.

    Returns:
        A :class:`SimilarityResult` with one row/column per video.
    """
    if window_frames < 4:
        raise ValueError("window_frames must be at least 4")
    rng = np.random.default_rng(seed)
    loaded = {n: make_dataset(n) for n in datasets}
    for ds in loaded.values():
        ds.cache_frames = False

    # Vocabulary from the 12 training feeds, as in Section V-A.
    bow = build_vocabulary(
        (
            image
            for ds in loaded.values()
            for camera_id in ds.camera_ids
            for image in _sample_frames(
                ds, camera_id, 0, ds.spec.train_end, max(4, window_frames // 3)
            )
        ),
        vocabulary_size=vocabulary_size,
        rng=rng,
    )
    extractor = FrameFeatureExtractor(bow)

    labels = []
    comparator = VideoComparator(subspace_dim=subspace_dim)
    for number, ds in loaded.items():
        for cam_idx, camera_id in enumerate(ds.camera_ids):
            label = f"{number}.{cam_idx + 1}"
            labels.append(label)
            images = _sample_frames(
                ds, camera_id, 0, ds.spec.train_end, window_frames
            )
            comparator.add_training_video(
                label, extractor.extract_video(images)
            )

    matrix = np.zeros((len(labels), len(labels)))
    col = 0
    for number, ds in loaded.items():
        span = ds.spec.total_frames - ds.spec.train_end - window_frames * 4
        for camera_id in ds.camera_ids:
            sims_accum = np.zeros(len(labels))
            for _ in range(repeats):
                offset = ds.spec.train_end + int(
                    rng.integers(0, max(1, span))
                )
                images = _sample_frames(
                    ds,
                    camera_id,
                    offset,
                    offset + window_frames * 4,
                    window_frames,
                )
                features = extractor.extract_video(images)
                sims = comparator.similarities(features)
                sims_accum += np.array([sims[label] for label in labels])
            matrix[:, col] = sims_accum / repeats
            col += 1
    return SimilarityResult(labels=labels, matrix=matrix)
