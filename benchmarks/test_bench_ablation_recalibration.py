"""Ablation: assessment period and re-calibration interval.

The paper sets the assessment period to 100 frames and the
re-calibration interval to 500 frames (Section VI-E).  Assessment
frames are expensive — every affordable algorithm runs on them — so
more frequent re-calibration trades energy for adaptivity.
"""

import numpy as np

from repro.core.config import EECSConfig
from repro.engine import DeploymentContext, DeploymentEngine
from repro.experiments.tables import format_table

INTERVALS = [250, 500, 1000]


def sweep_intervals(base_runner):
    rows = []
    for interval in INTERVALS:
        config = EECSConfig(
            assessment_period=100, recalibration_interval=interval
        )
        runner = DeploymentEngine(
            DeploymentContext.build(
                base_runner.dataset,
                config=config,
                detectors=base_runner.detectors,
                library=base_runner.library,
                rng=np.random.default_rng(78),
            )
        )
        result = runner.run("full", budget=2.0)
        rows.append((interval, result))
    return rows


def test_bench_ablation_recalibration(benchmark, runner_ds1):
    rows = benchmark.pedantic(
        sweep_intervals, args=(runner_ds1,), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["recalibration interval", "rounds", "detected", "energy (J)"],
        [
            [interval, len(r.decisions), r.humans_detected,
             r.energy_joules]
            for interval, r in rows
        ],
    ))

    by_interval = {interval: r for interval, r in rows}

    # More frequent re-calibration means more assessment rounds.
    assert (
        len(by_interval[250].decisions)
        > len(by_interval[1000].decisions)
    )

    # Assessment overhead: frequent re-calibration pays for more
    # all-algorithm assessment frames.  Faster adaptation can claw
    # part of it back by shrinking the operating set sooner, so the
    # comparison carries a tolerance band.
    assert (
        by_interval[250].energy_joules
        > 0.85 * by_interval[1000].energy_joules
    )

    # Accuracy stays in a similar band across cadences.
    counts = [r.humans_detected for _, r in rows]
    assert max(counts) - min(counts) < 0.3 * max(counts)
