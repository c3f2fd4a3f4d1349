"""Tables II, III and IV: per-algorithm accuracy and cost.

For one camera of one dataset, run every detection algorithm over a
segment, sweep the detection-score threshold to its f_score maximum
(training segments) or reuse the thresholds learned on the training
segment (test segments, as the paper does for Table IV), and report
threshold / recall / precision / f_score / energy / latency per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import score_frames
from repro.datasets.synthetic import SyntheticDataset, make_dataset
from repro.detection.detectors import ALGORITHM_NAMES, make_detector_suite
from repro.detection.metrics import best_threshold, precision_recall
from repro.energy.model import ProcessingEnergyModel
from repro.experiments.tables import format_table


@dataclass(frozen=True)
class AlgorithmRow:
    """One row of Tables II/III/IV."""

    algorithm: str
    threshold: float
    recall: float
    precision: float
    f_score: float
    energy_per_frame: float
    time_per_frame: float


def algorithm_table(
    dataset_number: int,
    camera_index: int = 0,
    segment: str = "train",
    dataset: SyntheticDataset | None = None,
    train_thresholds: dict[str, float] | None = None,
    seed: int = 7,
) -> list[AlgorithmRow]:
    """Measure every algorithm on one camera's segment.

    Args:
        dataset_number: 1, 2 or 3 (the paper's numbering).
        camera_index: Which of the four cameras.
        segment: ``"train"`` (threshold swept) or ``"test"``
            (thresholds carried over from training unless given).
        dataset: Optional pre-built dataset to reuse.
        train_thresholds: Per-algorithm thresholds for test segments;
            measured on the training segment when omitted.
        seed: Detection-noise seed.

    Returns:
        One row per algorithm, in ``ALGORITHM_NAMES`` order.
    """
    if segment not in ("train", "test"):
        raise ValueError(f"segment must be 'train' or 'test', got {segment!r}")
    ds = dataset or make_dataset(dataset_number)
    camera_id = ds.camera_ids[camera_index]
    suite = make_detector_suite(ds.environment)
    energy_model = ProcessingEnergyModel(
        width=ds.environment.width, height=ds.environment.height
    )
    records = (
        ds.training_segment().frames
        if segment == "train"
        else ds.test_segment().frames
    )
    rng = np.random.default_rng(seed)

    if segment == "test" and train_thresholds is None:
        train_rows = algorithm_table(
            dataset_number, camera_index, "train", dataset=ds, seed=seed
        )
        train_thresholds = {r.algorithm: r.threshold for r in train_rows}

    observations = [record.observation(camera_id) for record in records]
    rows = []
    for algorithm in ALGORITHM_NAMES:
        frames = score_frames(suite[algorithm], observations, rng)
        if segment == "train":
            threshold, counts = best_threshold(frames, num_steps=80)
        else:
            threshold = train_thresholds[algorithm]
            counts = precision_recall(frames, threshold)
        rows.append(
            AlgorithmRow(
                algorithm=algorithm,
                threshold=float(threshold),
                recall=counts.recall,
                precision=counts.precision,
                f_score=counts.f_score,
                energy_per_frame=energy_model.energy_per_frame(algorithm),
                time_per_frame=energy_model.time_per_frame(algorithm),
            )
        )
    return rows


def render_table(rows: list[AlgorithmRow], title: str = "") -> str:
    """Format rows like the paper's tables."""
    body = format_table(
        ["Alg.", "Threshold", "Recall", "Precision", "F-score",
         "Energy/frame (J)", "Time/frame (s)"],
        [
            [r.algorithm, r.threshold, r.recall, r.precision, r.f_score,
             r.energy_per_frame, r.time_per_frame]
            for r in rows
        ],
    )
    return f"{title}\n{body}" if title else body
