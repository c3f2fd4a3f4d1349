"""Fig. 6: EECS on dataset #2, where ACF is both best and cheapest.

Paper: EECS detects 1269 humans (~97% of the all-best count) while
consuming 239 J (~70%); it uses 2-3 of the 4 cameras, and algorithm
downgrade contributes nothing because ACF is already the cheapest.
"""

from repro.experiments.fig5 import accuracy_retention, energy_savings
from repro.experiments.tables import format_table

#: Only ACF (0.315 J/frame at 1024x768) fits this budget; HOG, C4 and
#: LSVM cost 9.86, 5.56 and 25.06 J/frame respectively.
DEFAULT_BUDGET = 1.0


def test_bench_fig6(benchmark, runner_ds2):
    from repro.experiments.fig5 import run_modes

    results = benchmark.pedantic(
        run_modes,
        kwargs=dict(dataset_number=2, budget=DEFAULT_BUDGET,
                    engine=runner_ds2),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(
        ["mode", "detected", "present", "energy (J)", "cameras/round"],
        [
            [r.mode, r.humans_detected, r.humans_present,
             r.energy_joules, str(r.cameras_per_round)]
            for r in results.values()
        ],
    ))
    savings = energy_savings(results)
    retention = accuracy_retention(results)
    print(f"energy vs baseline: {savings}")
    print(f"accuracy vs baseline: {retention}")

    # Only ACF is affordable, so subset and full coincide: downgrade
    # cannot reduce energy further (paper's observation).
    assert abs(
        results["full"].energy_joules - results["subset"].energy_joules
    ) < 0.15 * results["subset"].energy_joules

    # EECS drops cameras in at least some rounds.
    assert min(results["full"].cameras_per_round) <= 3

    # High accuracy retention (paper: ~97%).
    assert retention["full"] >= 0.85
