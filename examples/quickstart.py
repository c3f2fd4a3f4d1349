"""Quickstart: EECS on the synthetic "lab" dataset.

Builds dataset #1 (four overlapping cameras, six pedestrians), trains
the controller offline, then compares three deployment modes over the
test segment: the all-best baseline, EECS camera-subset selection, and
full EECS with algorithm downgrade.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.datasets import make_dataset
from repro.engine import DeploymentContext, DeploymentEngine
from repro.experiments.tables import format_table


def main() -> None:
    print("Building dataset #1 (lab: indoor, 6 people, 360x288) ...")
    dataset = make_dataset(1)

    print("Offline training: profiling 4 algorithms x 4 cameras ...")
    engine = DeploymentEngine(
        DeploymentContext.build(dataset, rng=np.random.default_rng(2017))
    )

    # Per-frame energy budget of 2 J: HOG (1.08 J/frame) is affordable,
    # C4 (4.92) and LSVM (3.31) are not -- the paper's Fig. 5a regime.
    budget = 2.0
    rows = []
    baseline_energy = None
    baseline_detected = None
    for mode in ("all_best", "subset", "full"):
        result = engine.run(mode, budget=budget)
        if mode == "all_best":
            baseline_energy = result.energy_joules
            baseline_detected = result.humans_detected
        rows.append([
            mode,
            result.humans_detected,
            result.humans_present,
            result.energy_joules,
            result.energy_joules / baseline_energy,
            result.humans_detected / baseline_detected,
        ])

    print()
    print(format_table(
        ["mode", "detected", "present", "energy (J)",
         "energy vs baseline", "accuracy vs baseline"],
        rows,
    ))
    print()
    full = rows[-1]
    print(
        f"Full EECS used {full[4]:.0%} of the baseline energy while "
        f"keeping {full[5]:.0%} of its detections."
    )


if __name__ == "__main__":
    main()
