"""End-to-end round-throughput benchmarks at deployment scale.

Measures full ``DeploymentEngine.run`` rounds (detect -> group ->
select -> fuse over a 500-frame window) on scaled camera rings, the
workload recorded in ``BENCH_scale.json``.  Three kinds of guard:

- A load-independent ratio: the batched serial path is timed
  interleaved with the pinned reference path (per-task
  ``detect_reference`` + unmemoised ``group_reference``) and must beat
  it by ``SCALE_MIN_SPEEDUP``.  Interleaving min-of-N keeps the
  comparison meaningful on noisy shared CI boxes — both paths see the
  same background load.
- An absolute floor in rounds/sec, overridable via the
  ``SCALE_RPS_FLOOR`` environment variable, set well below the numbers
  pinned in ``BENCH_scale.json`` but above the pre-batching seed.
- A peak-RSS ceiling on a fresh process that trains the 16-camera
  ring and pre-renders the window: frame images are painted on first
  read, so a return to painting every rendered frame breaks it.
- A load-independent ratio for offline training: one camera's
  training on the column path (``draw`` columns, the array matcher)
  is timed interleaved with the oracle path (``detect_reference``
  Detection lists, the per-detection greedy matcher) and must beat it
  by ``TRAINING_MIN_SPEEDUP``, with the same trained profiles.

Regenerate BENCH_scale.json with the recipe in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest

from benchmarks._bench_util import (
    assert_floor,
    env_float,
    interleaved_best,
    timed,
)
from repro.datasets.groundtruth import ground_truth_boxes
from repro.datasets.synthetic import make_dataset, make_scaled_dataset
from repro.detection.base import Detection
from repro.detection.detectors import make_detector_suite
from repro.detection.metrics import DetectionCounts
from repro.detection.scores import ScoreCalibrator
from repro.energy.model import ProcessingEnergyModel
from repro.engine.context import DeploymentContext, offline_train_camera
from repro.engine.core import DeploymentEngine
from repro.reid.matcher import CrossCameraMatcher

NUM_CAMERAS = 16
START, END = 1000, 1500
# Measured ~5x on an unloaded box; 3x leaves headroom for CI noise
# while still failing if the batched path regresses toward the seed.
SCALE_MIN_SPEEDUP = env_float("SCALE_MIN_SPEEDUP", 3.0)
# Seed throughput at 16 cameras was ~2.2 rounds/sec.
SCALE_RPS_FLOOR = env_float("SCALE_RPS_FLOOR", 2.5)
# Peak RSS of MEMORY_PROBE at 16 cameras (BENCH_scale.json "memory"):
# ~53 MB with no scipy imported, ~74 MB importing scipy.special and
# scipy.ndimage, ~144 MB painting every rendered frame as well.
SCALE_RSS_CEILING_MB = 64.0
# One dataset-2 camera's training, column path over oracle path
# (BENCH_scale.json "training"): measured 2.5-3.0x on 2 CPUs.
TRAINING_MIN_SPEEDUP = 1.8

#: Train a ring's context and pre-render the window in a fresh
#: process; print the peak RSS in MB.  The peak is ``VmHWM`` from
#: ``/proc/self/status`` (in KiB): it belongs to the process's own
#: address space and starts fresh at exec.  ``RUSAGE_SELF.ru_maxrss``
#: would not do: on Linux it keeps the parent's high-water mark across
#: ``execve``, so a probe started from a large pytest process would
#: report pytest's peak instead of the ring build's.
MEMORY_PROBE = """
import sys
import numpy as np
from repro.datasets.synthetic import make_scaled_dataset
from repro.engine.context import DeploymentContext

dataset = make_scaled_dataset(int(sys.argv[1]))
DeploymentContext.build(dataset, rng=np.random.default_rng(2018))
dataset.frames(1000, 1500, only_ground_truth=True)
with open("/proc/self/status") as status:
    hwm_kib = next(
        int(line.split()[1]) for line in status if line.startswith("VmHWM:")
    )
print(hwm_kib / 1024)
"""


class ReferencePathExecutor:
    """The pre-batching per-task path, kept as the honest baseline:
    every task runs the pinned ``detect_reference`` oracle on its own
    coordinate-seeded generator.  Injected through the engine's
    ``executor`` seam."""

    def execute(self, batch, detectors) -> list[list[Detection]]:
        return [
            detectors[task.algorithm].detect_reference(
                task.observation, task.make_rng(), task.threshold
            )
            for task in batch.tasks
        ]


@pytest.fixture(scope="module")
def scale_context():
    dataset = make_scaled_dataset(NUM_CAMERAS)
    context = DeploymentContext.build(
        dataset, rng=np.random.default_rng(2018)
    )
    # Pre-render the window so frame caching is excluded from timing.
    dataset.frames(START, END, only_ground_truth=True)
    return context


def _run_once(context, executor=None) -> tuple[float, object]:
    engine = DeploymentEngine(context, seed=2017, executor=executor)
    elapsed, result = timed(
        engine.run, "full", budget=2.0, start=START, end=END
    )
    return elapsed, result


def test_batched_serial_beats_reference_path(scale_context, monkeypatch):
    """Interleaved min-of-N: batched serial vs the pinned per-task
    reference path, on identical work, under identical load."""
    best_fast = best_ref = float("inf")
    fast_result = ref_result = None
    for _ in range(3):
        elapsed, fast_result = _run_once(scale_context)
        best_fast = min(best_fast, elapsed)
        with monkeypatch.context() as patch:
            patch.setattr(
                CrossCameraMatcher, "group", CrossCameraMatcher.group_reference
            )
            elapsed, ref_result = _run_once(
                scale_context, executor=ReferencePathExecutor()
            )
        best_ref = min(best_ref, elapsed)
    # Same deployment outcome before comparing speed.
    assert fast_result.humans_detected == ref_result.humans_detected
    assert fast_result.decisions == ref_result.decisions
    speedup = best_ref / best_fast
    assert speedup >= SCALE_MIN_SPEEDUP, (
        f"batched serial path is only {speedup:.2f}x the reference path "
        f"(need >= {SCALE_MIN_SPEEDUP}x); ref={best_ref:.3f}s "
        f"fast={best_fast:.3f}s"
    )


def test_serial_throughput_floor(scale_context):
    """Absolute rounds/sec floor at 16 cameras (best-of-5)."""
    best = min(_run_once(scale_context)[0] for _ in range(5))
    assert_floor(
        1.0 / best,
        SCALE_RPS_FLOOR,
        f"16-camera serial rounds/sec (window {START}..{END}, "
        "SCALE_RPS_FLOOR)",
    )


def test_bench_scale_json_records_acceptance():
    """BENCH_scale.json pins a >=5x 16-camera serial speedup over the
    seed baseline; keep the recorded evidence self-consistent."""
    path = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    data = json.loads(path.read_text())
    entry = data["results"]["16_cameras"]
    seed = entry["seed_serial_rounds_per_sec"]
    after = entry["serial"]["rounds_per_sec"]
    assert entry["serial_speedup_vs_seed"] >= 5.0
    assert after / seed == pytest.approx(
        entry["serial_speedup_vs_seed"], rel=0.01
    )


def test_bench_scale_json_cpus_2_block():
    """The 2-CPU block records the serial path at every ring size, and
    nothing for the deleted ``pool`` and ``shm`` backends."""
    path = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    text = path.read_text()
    assert "pool_2_workers" not in text
    assert "shm_2_workers" not in text
    block = json.loads(text)["cpus_2"]
    assert block["environment"]["cpus"] == 2
    assert sorted(block["results"]) == [
        "16_cameras", "4_cameras", "64_cameras"
    ]
    for scale, entry in block["results"].items():
        assert sorted(entry) == ["serial"], scale
        row = entry["serial"]
        assert row["rounds_per_sec"] == pytest.approx(
            1.0 / row["seconds"], rel=0.02
        ), scale


def test_ring_build_peak_rss_ceiling():
    """A fresh process training the 16-camera ring and pre-rendering
    frames 1000..1500 paints no image, so its peak RSS stays low."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, str(NUM_CAMERAS)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    peak_mb = float(out.split()[-1])
    assert peak_mb < SCALE_RSS_CEILING_MB, (
        f"16-camera ring build peaked at {peak_mb:.1f} MB "
        f"(ceiling {SCALE_RSS_CEILING_MB} MB)"
    )


def test_bench_scale_json_memory_block():
    """The memory block brackets the ceiling: before above, after below."""
    path = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    block = json.loads(path.read_text())["memory"]
    assert block["environment"]["cpus"] >= 1
    assert sorted(block["results"]) == ["16_cameras", "64_cameras"]
    ring16 = block["results"]["16_cameras"]
    assert ring16["after_mb"] < SCALE_RSS_CEILING_MB < ring16["before_mb"]
    for scale, entry in block["results"].items():
        assert entry["after_mb"] < entry["before_mb"], scale


def _oracle_matches(detections, ground_truth, iou_threshold=0.4):
    """The per-detection greedy matcher: in decreasing score order,
    each detection claims the available truth with the highest
    ``BoundingBox.iou`` if it is positive and at least the threshold."""
    available = list(range(len(ground_truth)))
    for det in sorted(detections, key=lambda d: -d.score):
        best_iou, best_idx = 0.0, None
        for idx in available:
            iou = det.bbox.iou(ground_truth[idx])
            if iou > best_iou:
                best_iou, best_idx = iou, idx
        matched = best_idx is not None and best_iou >= iou_threshold
        if matched:
            available.remove(best_idx)
        yield det, matched


def oracle_train_camera(dataset, camera_id, detectors, rng, num_steps=60):
    """One camera's offline training on the oracle path: the pinned
    ``detect_reference`` Detection lists, the per-detection matcher,
    sorted-list counts per threshold and the calibrator fed from the
    Detection lists.  Returns each algorithm's (threshold, precision,
    recall, f_score, calibrator weight, calibrator bias)."""
    observations = [
        record.observation(camera_id)
        for record in dataset.training_segment().frames
    ]
    out = {}
    for name, detector in detectors.items():
        frames = [
            (detector.detect_reference(obs, rng), ground_truth_boxes(obs))
            for obs in observations
        ]
        detections = [d for dets, _ in frames for d in dets]
        scores = [d.score for d in detections]
        tp_scores, fp_scores, truths = [], [], 0
        for dets, ground_truth in frames:
            truths += len(ground_truth)
            for det, matched in _oracle_matches(dets, ground_truth):
                (tp_scores if matched else fp_scores).append(det.score)
        tp_scores.sort()
        fp_scores.sort()
        lo, hi = min(scores), max(scores)
        thresholds = (
            [lo] if hi - lo < 1e-12 else list(np.linspace(lo, hi, num_steps))
        )
        sweep = []
        for t in thresholds:
            tp = len(tp_scores) - bisect_left(tp_scores, t)
            fp = len(fp_scores) - bisect_left(fp_scores, t)
            sweep.append((t, DetectionCounts(tp=tp, fp=fp, fn=truths - tp)))
        threshold, counts = max(sweep, key=lambda item: item[1].f_score)
        calibrator = ScoreCalibrator().fit(
            np.array(scores),
            np.array([1.0 if d.is_true_positive else 0.0 for d in detections]),
        )
        out[name] = (
            float(threshold), counts.precision, counts.recall,
            counts.f_score, calibrator.weight, calibrator.bias,
        )
    return out


def time_camera_training(repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` seconds of dataset 2's first camera's
    training on the column path and on the oracle path, interleaved;
    both must train the same profiles."""
    dataset = make_dataset(2)
    dataset.training_segment()  # render outside the timing
    camera_id = dataset.camera_ids[0]
    detectors = make_detector_suite(dataset.environment)
    env = dataset.environment
    energy_model = ProcessingEnergyModel(width=env.width, height=env.height)
    trained = {}

    def column() -> float:
        elapsed, item = timed(
            offline_train_camera, dataset, camera_id, detectors,
            energy_model, np.random.default_rng(7),
        )
        trained["column"] = {
            name: (
                p.threshold, p.precision, p.recall, p.f_score,
                p.calibrator.weight, p.calibrator.bias,
            )
            for name, p in item.profiles.items()
        }
        return elapsed

    def oracle() -> float:
        elapsed, trained["oracle"] = timed(
            oracle_train_camera, dataset, camera_id, detectors,
            np.random.default_rng(7),
        )
        return elapsed

    column_s, oracle_s = interleaved_best(repeats, column, oracle)
    assert trained["column"] == trained["oracle"]
    return column_s, oracle_s


def test_column_training_beats_oracle_path():
    """Interleaved min-of-N: one camera's training on the column path
    vs the oracle path, with bit-identical trained profiles."""
    column_s, oracle_s = time_camera_training(3)
    speedup = oracle_s / column_s
    assert speedup >= TRAINING_MIN_SPEEDUP, (
        f"column training is only {speedup:.2f}x the oracle path "
        f"(need >= {TRAINING_MIN_SPEEDUP}x); oracle={oracle_s:.3f}s "
        f"column={column_s:.3f}s"
    )


def test_bench_scale_json_training_block():
    """The training block records context builds that got faster, the
    command that regenerates it, and a one-camera speed-up above the
    floor."""
    path = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    block = json.loads(path.read_text())["training"]
    assert block["environment"]["cpus"] >= 1
    assert "benchmarks/gen_bench_training.py" in block["command"]
    assert sorted(block["results"]) == [
        "dataset_1", "dataset_2", "dataset_3"
    ]
    for name, entry in block["results"].items():
        assert entry["after_s"] < entry["before_s"], name
        assert entry["speedup"] == pytest.approx(
            entry["before_s"] / entry["after_s"], rel=0.01
        ), name
    camera = block["one_camera"]
    assert camera["speedup_vs_oracle"] == pytest.approx(
        camera["oracle_s"] / camera["column_s"], rel=0.01
    )
    assert camera["speedup_vs_oracle"] > TRAINING_MIN_SPEEDUP
