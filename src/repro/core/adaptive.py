"""End-to-end adaptive deployment across environment changes.

The paper's motivating scenario (Section I, Fig. 3): a camera's
surroundings change — say from the clean lab to the cluttered chap
room — and the detection algorithm must change with them.  This module
wires the *complete* Section IV-B pipeline into one object: on every
environment phase the camera extracts HOG ++ BoW features from a short
clip, the controller GFK-matches them against its training library,
transfers the matched item's algorithm ranking and threshold, and the
camera runs the chosen algorithm for the rest of the phase.

Unlike :class:`~repro.engine.core.DeploymentEngine` (which binds each
camera to its own training item up front), nothing here is told which
environment it is in — the match is earned by the video comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import TrainingItem
from repro.datasets.groundtruth import ground_truth_boxes
from repro.datasets.synthetic import SyntheticDataset, make_dataset
from repro.detection.detectors import make_detector_suite
from repro.detection.metrics import DetectionCounts, match_detections
from repro.domain_adaptation.similarity import VideoComparator
from repro.energy.model import ProcessingEnergyModel
from repro.experiments.table2_3_4 import algorithm_table
from repro.vision.bow import BagOfWords
from repro.vision.features import FrameFeatureExtractor
from repro.vision.keypoints import extract_descriptors


@dataclass
class PhaseResult:
    """Outcome of one environment phase.

    Attributes:
        dataset_number: Which dataset the phase streamed from.
        matched_item: Training item the GFK comparison selected.
        similarity: Similarity score of the match.
        algorithm: Algorithm deployed for the phase.
        counts: Detection outcomes over the phase.
        energy_joules: Processing energy spent in the phase.
    """

    dataset_number: int
    matched_item: str
    similarity: float
    algorithm: str
    counts: DetectionCounts
    energy_joules: float

    @property
    def correct_match(self) -> bool:
        return self.matched_item == f"T{self.dataset_number}"


def _sample_images(
    dataset: SyntheticDataset,
    camera_id: str,
    start: int,
    end: int,
    count: int,
) -> list[np.ndarray]:
    step = max(1, (end - start) // count)
    records = dataset.frames(start, start + step * count, step=step)
    return [r.observation(camera_id).image for r in records]


class AdaptiveDeployment:
    """One camera, several environments, fully adaptive selection."""

    def __init__(
        self,
        dataset_numbers: tuple[int, ...] = (1, 2),
        window_frames: int = 12,
        subspace_dim: int = 8,
        vocabulary_size: int = 300,
        exclude: tuple[str, ...] = ("LSVM",),
        seed: int = 31,
    ) -> None:
        if len(dataset_numbers) < 2:
            raise ValueError("an adaptive scenario needs >= 2 environments")
        self.window_frames = window_frames
        self.exclude = exclude
        rng = np.random.default_rng(seed)
        self.datasets = {n: make_dataset(n) for n in dataset_numbers}
        for ds in self.datasets.values():
            ds.cache_frames = False
        self.suites = {
            n: make_detector_suite(ds.environment)
            for n, ds in self.datasets.items()
        }
        self.energy_models = {
            n: ProcessingEnergyModel(
                width=ds.environment.width, height=ds.environment.height
            )
            for n, ds in self.datasets.items()
        }

        # Shared vocabulary over all training feeds (Section V-A).
        descriptors = []
        for ds in self.datasets.values():
            for camera_id in ds.camera_ids[:2]:
                for image in _sample_images(
                    ds, camera_id, 0, ds.spec.train_end, 5
                ):
                    found = extract_descriptors(image)
                    if len(found):
                        descriptors.append(found)
        bow = BagOfWords(vocabulary_size=vocabulary_size, rng=rng)
        bow.fit(np.vstack(descriptors))
        self.extractor = FrameFeatureExtractor(bow)

        # Offline training (camera 0 of each dataset) + feature upload.
        self.comparator = VideoComparator(subspace_dim=subspace_dim)
        self.items: dict[str, TrainingItem] = {}
        self.thresholds: dict[str, dict[str, float]] = {}
        for n, ds in self.datasets.items():
            rows = algorithm_table(n, 0, "train", dataset=ds, seed=seed)
            name = f"T{n}"
            self.thresholds[name] = {r.algorithm: r.threshold for r in rows}
            from repro.core.calibration import AlgorithmProfile

            profiles = {
                r.algorithm: AlgorithmProfile(
                    algorithm=r.algorithm,
                    training_item=name,
                    threshold=r.threshold,
                    precision=r.precision,
                    recall=r.recall,
                    f_score=r.f_score,
                    energy_per_frame=r.energy_per_frame,
                    time_per_frame=r.time_per_frame,
                )
                for r in rows
            }
            self.items[name] = TrainingItem(name=name, profiles=profiles)
            images = _sample_images(
                ds, ds.camera_ids[0], 0, ds.spec.train_end, window_frames
            )
            self.comparator.add_training_video(
                name, self.extractor.extract_video(images)
            )
        self._rng = rng

    def select_algorithm(self, item: TrainingItem) -> str:
        """Best deployable algorithm of a matched item."""
        deployable = [
            p
            for p in item.profiles.values()
            if p.algorithm not in self.exclude
        ]
        return max(deployable, key=lambda p: p.f_score).algorithm

    def run_phase(
        self,
        dataset_number: int,
        start: int = 1200,
        end: int = 2800,
    ) -> PhaseResult:
        """One environment phase: match, choose, deploy, measure."""
        if dataset_number not in self.datasets:
            raise KeyError(f"phase dataset #{dataset_number} not loaded")
        ds = self.datasets[dataset_number]
        camera_id = ds.camera_ids[0]

        # 1. Feature upload from a short clip of the unknown feed.
        images = _sample_images(
            ds, camera_id, start, min(end, start + 400), self.window_frames
        )
        features = self.extractor.extract_video(images)

        # 2. GFK match -> training item -> algorithm + threshold.
        matched, similarity = self.comparator.best_match(features)
        item = self.items[matched]
        algorithm = self.select_algorithm(item)
        threshold = self.thresholds[matched][algorithm]

        # 3. Deploy the chosen algorithm over the phase's GT frames.
        detector = self.suites[dataset_number][algorithm]
        energy_model = self.energy_models[dataset_number]
        counts = DetectionCounts()
        energy = 0.0
        for record in ds.frames(start, end, only_ground_truth=True):
            observation = record.observation(camera_id)
            detections = detector.detect(
                observation, self._rng, threshold=threshold
            )
            counts = counts.add(
                match_detections(
                    detections, ground_truth_boxes(observation)
                )
            )
            energy += energy_model.energy_per_frame(algorithm)
        return PhaseResult(
            dataset_number=dataset_number,
            matched_item=matched,
            similarity=similarity,
            algorithm=algorithm,
            counts=counts,
            energy_joules=energy,
        )

    def run_scenario(
        self, phases: list[int] | None = None
    ) -> list[PhaseResult]:
        """Run a sequence of environment phases (default: each loaded
        dataset once, in order)."""
        if phases is None:
            phases = list(self.datasets)
        return [self.run_phase(number) for number in phases]
