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

Regenerate BENCH_scale.json with the recipe in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks._bench_util import assert_floor, env_float, timed
from repro.datasets.synthetic import make_scaled_dataset
from repro.detection.base import Detection
from repro.engine.context import DeploymentContext
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
