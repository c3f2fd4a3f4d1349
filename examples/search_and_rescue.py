"""Search-and-rescue scenario on the outdoor "terrace" dataset.

The paper's motivating deployment: battery-operated cameras watching
a disaster-recovery area for humans in distress.  This example gives
each camera a small battery, derives per-frame budgets from the
required operation time (as in Section VI), and shows how EECS
stretches network lifetime: per-round decisions, battery drain and
the humans detected along the way.

Run:  python examples/search_and_rescue.py
"""

import numpy as np

from repro.core import EECSConfig
from repro.datasets import make_dataset
from repro.energy.battery import Battery
from repro.engine import DeploymentContext, DeploymentEngine
from repro.experiments.tables import format_table


def run_mission(engine: DeploymentEngine, mode: str, budget: float):
    result = engine.run(mode, budget=budget)
    return result


def main() -> None:
    print("Deploying 4 cameras over the terrace (outdoor, 8 people) ...")
    dataset = make_dataset(3)
    config = EECSConfig(gamma_n=0.85, gamma_p=0.8)
    engine = DeploymentEngine(
        DeploymentContext.build(
            dataset, config=config, rng=np.random.default_rng(42)
        )
    )

    # Mission: 6 hours, one processed frame every 2 seconds, a 2000 J
    # battery reserve earmarked for detection workloads.
    reserve = Battery(capacity_joules=2000.0)
    budget = reserve.budget_for(
        operation_time_s=config.operation_time_s,
        seconds_per_frame=config.seconds_per_frame,
    )
    print(
        f"Per-frame budget from the {reserve.capacity_joules:.0f} J "
        f"reserve over 6 h at 0.5 fps: {budget:.3f} J/frame"
    )

    rows = []
    for mode in ("all_best", "full"):
        result = run_mission(engine, mode, budget=max(budget, 0.5))
        rounds = [d.num_active for d in result.decisions]
        rows.append([
            mode,
            result.humans_detected,
            f"{result.detection_rate:.0%}",
            result.energy_joules,
            str(rounds) if rounds else "n/a (static)",
        ])
    print()
    print(format_table(
        ["mode", "humans detected", "detection rate",
         "energy (J)", "cameras per round"],
        rows,
    ))

    base, eecs = rows[0], rows[1]
    saving = 1.0 - eecs[3] / base[3]
    print()
    print(
        f"EECS extends the mission: {saving:.0%} less energy per round "
        f"of coverage, i.e. roughly {1 / (1 - saving):.2f}x the lifetime "
        f"on the same batteries."
    )


if __name__ == "__main__":
    main()
