"""Regenerate ``BENCH_fleet.json`` (see EXPERIMENTS.md).

Times flat ``subset`` vs sharded ``cell`` on tiled fleets of
50 / 200 / 1000 cameras.  The window shrinks as
the fleet grows.  Flat greedy selection regroups incrementally, so its
cost per camera-round stays flat as the fleet grows.

Run from the repo root:

    PYTHONPATH=src:. python benchmarks/gen_bench_fleet.py > BENCH_fleet.json
"""

from __future__ import annotations

import json
import os
import time

from repro.engine import DeploymentEngine, fleet_context

START = 1000
# (num_cameras, end_frame, cells, repeats, flat_repeats)
SCALES = [
    (50, 1100, 5, 5, 5),
    (200, 1050, 20, 3, 3),
    (1000, 1025, 100, 3, 3),
]


def best_of(repeats, context, policy, **kwargs):
    best = float("inf")
    result = None
    for _ in range(repeats):
        engine = DeploymentEngine(context, seed=2017)
        t0 = time.perf_counter()
        result = engine.run(policy, budget=2.0, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def entry(seconds, result, repeats, rounds, **extra):
    return {
        "seconds": round(seconds, 4),
        "rounds_per_sec": round(rounds / seconds, 3),
        "repeats": repeats,
        "detected": result.humans_detected,
        "present": result.humans_present,
        **extra,
    }


def main() -> None:
    results = {}
    for num_cameras, end, cells, repeats, flat_repeats in SCALES:
        context = fleet_context(num_cameras)
        # Pre-render the window so frame caching is excluded.
        context.dataset.frames(START, end, only_ground_truth=True)
        rounds = (end - START) // 25  # dataset 1 gt_every

        flat_s, flat = best_of(
            flat_repeats, context, "subset", start=START, end=end
        )
        cell_s, cell = best_of(
            repeats, context, "cell", cells=cells, start=START, end=end
        )

        results[f"{num_cameras}_cameras"] = {
            "window": {"start": START, "end": end, "rounds": rounds},
            "subset": entry(flat_s, flat, flat_repeats, rounds),
            "cell": entry(cell_s, cell, repeats, rounds, cells=cells),
            "cell_speedup_vs_subset": round(flat_s / cell_s, 2),
            "cell_detection_retention_vs_subset": round(
                cell.humans_detected / flat.humans_detected, 4
            ),
        }

    print(
        json.dumps(
            {
                "description": (
                    "Fleet-scale coordination throughput: flat 'subset' "
                    "(one controller ranks the whole fleet) vs sharded "
                    "'cell' (per-cell controllers under a budget "
                    "coordinator) on tiled fleets built from dataset "
                    "#1's 4-camera scene.  One round = one "
                    "assessed ground-truth frame (every 25 frames); the "
                    "window shrinks with fleet size.  Best-of-N wall "
                    "clock.  Flat greedy selection regroups only what "
                    "each added camera reaches, so flat and cell cost "
                    "about the same at every size; detection retention "
                    "stays near 1.0 because each cell runs the same "
                    "greedy protocol locally.  Regenerate with "
                    "benchmarks/gen_bench_fleet.py (recipe in "
                    "EXPERIMENTS.md)."
                ),
                "units": "seconds_best_of_n",
                "environment": {
                    "cpus": os.cpu_count(),
                    "note": "shared container; serial executor",
                },
                "budget": 2.0,
                "results": results,
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
