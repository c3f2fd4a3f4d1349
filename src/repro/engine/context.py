"""The trained substrate a deployment engine runs on.

Offline training (profiling every algorithm on every camera's training
segment, Section IV-A) and colour-metric fitting are the expensive,
deterministic part of building a deployment: ~seconds per dataset,
identical for every run that shares a training seed.  A
:class:`DeploymentContext` bundles those artefacts — dataset, config,
detectors, training library, re-identification matcher, energy model —
as an immutable unit that any number of engines can share.

:func:`shared_context` is the engine-owned construction cache:
contexts are safe to share because they hold no per-run state
(controllers, batteries and meters are built fresh per engine), so
repeated specs cannot leak state across experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import (
    TrainingItem,
    TrainingLibrary,
    profile_algorithm,
    score_frames,
)
from repro.core.config import EECSConfig
from repro.datasets.synthetic import SyntheticDataset
from repro.detection.detectors import SimulatedDetector, make_detector_suite
from repro.energy.model import ProcessingEnergyModel
from repro.reid.mahalanobis import MahalanobisMetric
from repro.reid.matcher import CrossCameraMatcher

#: Seed base for shared contexts, matching the historical harness
#: convention (dataset N trains from ``2017 + N``).
DEFAULT_TRAIN_SEED_BASE = 2017


def offline_train_camera(
    dataset: SyntheticDataset,
    camera_id: str,
    detectors: dict[str, SimulatedDetector],
    energy_model: ProcessingEnergyModel,
    rng: np.random.Generator,
    item_name: str | None = None,
) -> TrainingItem:
    """Profile every algorithm on one camera's training segment."""
    observations = [
        record.observation(camera_id)
        for record in dataset.training_segment().frames
    ]
    profiles = {
        name: profile_algorithm(
            detector,
            score_frames(detector, observations, rng),
            item_name or f"T-{camera_id}",
            energy_model,
        )
        for name, detector in detectors.items()
    }
    return TrainingItem(
        name=item_name or f"T-{camera_id}", profiles=profiles
    )


def build_training_library(
    dataset: SyntheticDataset,
    detectors: dict[str, SimulatedDetector],
    rng: np.random.Generator,
) -> TrainingLibrary:
    """Offline training over all of a dataset's cameras."""
    env = dataset.environment
    energy_model = ProcessingEnergyModel(width=env.width, height=env.height)
    library = TrainingLibrary()
    for camera_id in dataset.camera_ids:
        library.add(
            offline_train_camera(
                dataset, camera_id, detectors, energy_model, rng
            )
        )
    return library


def fit_color_metric(
    dataset: SyntheticDataset,
    detectors: dict[str, SimulatedDetector],
    rng: np.random.Generator,
    num_frames: int = 8,
) -> MahalanobisMetric:
    """Fit the re-identification colour metric on training detections.

    Reads the column draw, so colours are finished in one stack per
    frame and no :class:`~repro.detection.base.Detection` is built.
    """
    segment = dataset.training_segment()
    any_detector = next(iter(detectors.values()))
    samples = [
        any_detector.draw(record.observation(camera_id), rng).colors()
        for record in segment.frames[:num_frames]
        for camera_id in dataset.camera_ids
    ]
    colors = np.concatenate(samples)
    if len(colors) < 2:
        raise RuntimeError("too few detections to fit the colour metric")
    return MahalanobisMetric(n_components=None, shrinkage=0.2).fit(colors)


@dataclass
class DeploymentContext:
    """Immutable trained artefacts shared by engines on one dataset."""

    dataset: SyntheticDataset
    config: EECSConfig
    detectors: dict[str, SimulatedDetector]
    library: TrainingLibrary
    matcher: CrossCameraMatcher
    energy_model: ProcessingEnergyModel

    @classmethod
    def build(
        cls,
        dataset: SyntheticDataset,
        config: EECSConfig | None = None,
        detectors: dict[str, SimulatedDetector] | None = None,
        library: TrainingLibrary | None = None,
        rng: np.random.Generator | None = None,
    ) -> "DeploymentContext":
        """Train (or adopt) everything a deployment needs.

        The draw order on ``rng`` — training first, colour metric
        second — is load-bearing: it reproduces the historical runner
        construction bit for bit.
        """
        config = config or EECSConfig()
        rng = rng if rng is not None else np.random.default_rng(2017)
        env = dataset.environment
        detectors = detectors or make_detector_suite(env)
        energy_model = ProcessingEnergyModel(
            width=env.width, height=env.height
        )
        if library is None:
            library = build_training_library(dataset, detectors, rng)
        color_metric = fit_color_metric(dataset, detectors, rng)
        matcher = CrossCameraMatcher(
            image_to_ground=dataset.ground_homographies(),
            ground_radius=config.ground_radius_m,
            color_metric=color_metric,
            color_threshold=config.color_threshold,
        )
        return cls(
            dataset=dataset,
            config=config,
            detectors=detectors,
            library=library,
            matcher=matcher,
            energy_model=energy_model,
        )


_CONTEXTS: dict[tuple, DeploymentContext] = {}


def shared_context(
    dataset_number: int,
    config: EECSConfig | None = None,
    train_seed: int | None = None,
) -> DeploymentContext:
    """The engine-owned shared context for a dataset (trained once per
    process and per (dataset, config, seed) combination).

    Contexts are immutable, so sharing is safe; everything mutable is
    per-engine.
    """
    if train_seed is None:
        train_seed = DEFAULT_TRAIN_SEED_BASE + dataset_number
    key = (dataset_number, train_seed, config)
    if key not in _CONTEXTS:
        from repro.datasets.synthetic import make_dataset

        _CONTEXTS[key] = DeploymentContext.build(
            make_dataset(dataset_number),
            config=config,
            rng=np.random.default_rng(train_seed),
        )
    return _CONTEXTS[key]
