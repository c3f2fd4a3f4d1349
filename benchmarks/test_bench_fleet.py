"""Fleet-scale coordination benchmarks.

Flat ``subset`` selection ranks the entire fleet in one controller;
the ``cell`` policy shards that work across per-cell controllers under
the budget coordinator.
Incremental greedy regrouping made flat selection linear in the
cameras it chooses, so sharding no longer buys wall time: at 200
cameras cell and flat now take about the same time (measured
0.97-1.30x, five interleaved best-of-3 runs; ~11x while flat
selection regrouped every prefix).  These guards pin what
``BENCH_fleet.json`` records:

- sharding costs no throughput: at 200 cameras the cell policy runs at
  least ``FLEET_MIN_SPEEDUP`` times as fast as the flat baseline, and
  each cell controller ranks only its own cameras;
- sharding does not give up detections: per-cell retention vs the
  flat baseline stays above ``FLEET_RETENTION_FLOOR``.

Plus an absolute 50-camera cell-policy throughput floor for the CI
``fleet-smoke`` job.  Regenerate BENCH_fleet.json with
``benchmarks/gen_bench_fleet.py`` (recipe in EXPERIMENTS.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks._bench_util import (
    assert_floor,
    env_float,
    interleaved_best,
    timed,
)
from repro.core.selection import SelectionEngine
from repro.engine import DeploymentEngine, fleet_context

START = 1000
# Measured 0.97-1.30x (median 1.12x) and again 1.04-1.51x at 200
# cameras on the 2-CPU box; 0.85 sits below the lowest, so a cell path
# that runs clearly slower than flat fails.  It no longer tells cells
# from one flat selection (that measures ~1.0x): the per-cell ranking
# check below does.
FLEET_MIN_SPEEDUP = env_float("FLEET_MIN_SPEEDUP", 0.85)
# Measured ~1.0 (cells slightly beat flat); 0.9 is the guard.
FLEET_RETENTION_FLOOR = env_float("FLEET_RETENTION_FLOOR", 0.9)
# Measured ~40 rounds/sec for the 50-camera cell policy; floor well
# below that but far above the flat baseline's ~19.
FLEET_RPS_FLOOR = env_float("FLEET_RPS_FLOOR", 8.0)


@pytest.fixture(scope="module")
def fleet50():
    context = fleet_context(50)
    context.dataset.frames(START, 1100, only_ground_truth=True)
    return context


@pytest.fixture(scope="module")
def fleet200():
    context = fleet_context(200)
    context.dataset.frames(START, 1050, only_ground_truth=True)
    return context


def _run_once(context, policy, end, **kwargs):
    engine = DeploymentEngine(context, seed=2017)
    elapsed, result = timed(
        engine.run, policy, budget=2.0, start=START, end=end, **kwargs
    )
    return elapsed, result


def test_cell_keeps_pace_with_flat_subset_at_200_cameras(
    fleet200, monkeypatch
):
    """Interleaved min-of-N: sharded cells vs one flat controller on
    the same 200-camera fleet, under the same load."""
    results = {}
    ranked: dict[str, list[int]] = {"flat": [], "cell": []}
    greedy = SelectionEngine.greedy_subset
    policy = {"name": "flat"}

    def recording_greedy(self, assessment, ranked_plans, desired):
        ranked[policy["name"]].append(len(ranked_plans))
        return greedy(self, assessment, ranked_plans, desired)

    monkeypatch.setattr(SelectionEngine, "greedy_subset", recording_greedy)

    def flat() -> float:
        policy["name"] = "flat"
        elapsed, results["flat"] = _run_once(fleet200, "subset", 1050)
        return elapsed

    def sharded() -> float:
        policy["name"] = "cell"
        elapsed, results["cell"] = _run_once(
            fleet200, "cell", 1050, cells=20
        )
        return elapsed

    best_flat, best_cell = interleaved_best(3, flat, sharded)
    speedup = best_flat / best_cell
    assert speedup >= FLEET_MIN_SPEEDUP, (
        f"200-camera cell policy is only {speedup:.2f}x the flat "
        f"subset baseline (need >= {FLEET_MIN_SPEEDUP}x); "
        f"flat={best_flat:.3f}s cell={best_cell:.3f}s"
    )
    # 20 cells of 10: each controller ranks its own cell, never the
    # fleet, which is what the flat controller ranks.
    assert max(ranked["flat"]) == 200
    assert max(ranked["cell"]) <= 10, max(ranked["cell"])
    retention = (
        results["cell"].humans_detected / results["flat"].humans_detected
    )
    assert_floor(
        retention,
        FLEET_RETENTION_FLOOR,
        "200-camera cell detection retention vs flat subset "
        "(FLEET_RETENTION_FLOOR)",
    )


def test_cell_throughput_floor_50_cameras(fleet50):
    """Absolute rounds/sec floor for the CI fleet-smoke job."""
    rounds = (1100 - START) // 25
    best = min(
        _run_once(fleet50, "cell", 1100, cells=5)[0] for _ in range(5)
    )
    assert_floor(
        rounds / best,
        FLEET_RPS_FLOOR,
        f"50-camera cell rounds/sec (window {START}..1100, "
        "FLEET_RPS_FLOOR)",
    )


def test_bench_fleet_json_records_acceptance():
    """BENCH_fleet.json pins the flat path's linear scaling and the
    retention floor; keep the recorded evidence self-consistent."""
    path = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
    data = json.loads(path.read_text())
    assert data["units"] == "seconds_best_of_n"
    flat_per_camera_round = {}
    for scale, entry in data["results"].items():
        flat, cell = entry["subset"], entry["cell"]
        recorded = entry["cell_speedup_vs_subset"]
        assert flat["seconds"] / cell["seconds"] == pytest.approx(
            recorded, rel=0.01
        ), scale
        assert entry[
            "cell_detection_retention_vs_subset"
        ] == pytest.approx(
            cell["detected"] / flat["detected"], abs=0.001
        ), scale
        assert entry["cell_detection_retention_vs_subset"] >= 0.9, scale
        assert recorded >= FLEET_MIN_SPEEDUP, scale
        cameras = int(scale.split("_")[0])
        flat_per_camera_round[cameras] = flat["seconds"] / (
            cameras * entry["window"]["rounds"]
        )
    # Flat selection is linear in the fleet: a camera-round costs about
    # the same at 1000 cameras as at 200 (30x more while every greedy
    # prefix was regrouped from scratch).
    assert flat_per_camera_round[1000] <= 3.0 * flat_per_camera_round[200]
