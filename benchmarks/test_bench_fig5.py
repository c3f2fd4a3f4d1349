"""Figs. 5a/5b: EECS versus the all-best baseline on dataset #1 under
two budget regimes.

Paper, Fig. 5a (budget >= 1.08 J, HOG affordable):
    all cameras, best algorithms:  ~333 J, 373 humans
    EECS camera subset:            ~248 J (75%), 341 humans (91%)
    EECS + downgrade:              ~198 J (59%), 322 humans (86%)

Paper, Fig. 5b (budget in [0.07, 1.08), only ACF affordable):
    all cameras: ~22 J, 307 humans;  EECS: ~15 J (68%), 269 (88%)

Shape asserted: the energy staircase (all_best > subset >= full), the
camera-subset reduction, and accuracy retention above the gamma_n
slack.  Our simulated substrate saves somewhat less than the paper's
testbed because the assessment overhead is charged in full; the
ordering and regimes match.
"""

from repro.experiments.fig5 import (
    HIGH_BUDGET,
    LOW_BUDGET,
    accuracy_retention,
    energy_savings,
    run_modes,
)
from repro.experiments.tables import format_table


def _report(results):
    print()
    print(format_table(
        ["mode", "detected", "present", "energy (J)", "cameras/round"],
        [
            [r.mode, r.humans_detected, r.humans_present,
             r.energy_joules, str(r.cameras_per_round)]
            for r in results.values()
        ],
    ))


def test_bench_fig5a(benchmark, runner_ds1):
    results = benchmark.pedantic(
        run_modes,
        kwargs=dict(dataset_number=1, budget=HIGH_BUDGET, engine=runner_ds1),
        rounds=1,
        iterations=1,
    )
    _report(results)
    savings = energy_savings(results)
    retention = accuracy_retention(results)
    print(f"energy vs baseline: {savings}")
    print(f"accuracy vs baseline: {retention}")

    # The staircase: full <= subset < all_best.
    assert savings["full"] <= savings["subset"] + 0.02
    assert savings["full"] < 0.9

    # EECS drops to <= 3 cameras in at least some rounds.
    assert min(results["full"].cameras_per_round) <= 3

    # Downgrade actually mixes in ACF.
    # (The decisions are not kept in ModeResult; the camera counts and
    # the energy drop below subset level evidence the downgrade.)
    assert results["full"].energy_joules <= results["subset"].energy_joules

    # Accuracy retention at or above the paper's ~86%.
    assert retention["full"] >= 0.80


def test_bench_fig5b(benchmark, runner_ds1):
    results = benchmark.pedantic(
        run_modes,
        kwargs=dict(dataset_number=1, budget=LOW_BUDGET, engine=runner_ds1),
        rounds=1,
        iterations=1,
    )
    _report(results)
    savings = energy_savings(results)
    retention = accuracy_retention(results)
    print(f"energy vs baseline: {savings}")
    print(f"accuracy vs baseline: {retention}")

    # The whole network runs ACF: the baseline's total is tiny compared
    # to the high-budget regime (paper: ~22 J vs ~333 J).
    assert results["all_best"].energy_joules < 40.0

    # EECS saves energy by dropping cameras; with ACF already the
    # cheapest algorithm, downgrade cannot add savings beyond subset.
    assert savings["full"] <= 1.0
    assert retention["full"] >= 0.80
