"""Ablation: the gamma accuracy-slack factors.

The paper fixes gamma_n = 0.85 and gamma_p = 0.8 (Section VI-E) and
notes EECS "can be tuned to achieve the right trade-offs".  This
ablation sweeps gamma and traces the energy/accuracy frontier:
tighter requirements keep more cameras and better algorithms (more
energy, more detections); looser ones save energy.
"""

import numpy as np

from repro.core.config import EECSConfig
from repro.engine import DeploymentContext, DeploymentEngine
from repro.experiments.tables import format_table

GAMMAS = [(0.95, 0.9), (0.85, 0.8), (0.7, 0.65)]


def sweep_gamma(base_runner):
    rows = []
    for gamma_n, gamma_p in GAMMAS:
        config = EECSConfig(gamma_n=gamma_n, gamma_p=gamma_p)
        runner = DeploymentEngine(
            DeploymentContext.build(
                base_runner.dataset,
                config=config,
                detectors=base_runner.detectors,
                library=base_runner.library,
                rng=np.random.default_rng(77),
            )
        )
        result = runner.run("full", budget=2.0)
        rows.append((gamma_n, gamma_p, result))
    return rows


def test_bench_ablation_gamma(benchmark, runner_ds1):
    rows = benchmark.pedantic(
        sweep_gamma, args=(runner_ds1,), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["gamma_n", "gamma_p", "detected", "energy (J)", "cameras/round"],
        [
            [gn, gp, r.humans_detected, r.energy_joules,
             str([d.num_active for d in r.decisions])]
            for gn, gp, r in rows
        ],
    ))

    energies = [r.energy_joules for _, _, r in rows]
    detected = [r.humans_detected for _, _, r in rows]

    # Looser slack never costs more energy than the tightest setting.
    assert energies[-1] <= energies[0] + 1e-9

    # Tighter slack never detects fewer humans than the loosest.
    assert detected[0] >= detected[-1] - 10

    # The frontier is non-trivial: the sweep spans a real energy range.
    assert max(energies) > min(energies)
