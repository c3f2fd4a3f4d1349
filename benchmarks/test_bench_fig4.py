"""Fig. 4: accuracy versus energy for camera/algorithm combinations on
dataset #1.

Paper: 2HOG+2ACF consumes ~54% of 4HOG's energy while detecting 85%
of the scene's objects versus 92% — the trade-off EECS exploits.
"""

from repro.experiments.fig4 import tradeoff_curve
from repro.experiments.tables import format_table


def test_bench_fig4(benchmark, runner_ds1):
    points = benchmark.pedantic(
        tradeoff_curve,
        kwargs=dict(dataset_number=1, engine=runner_ds1),
        rounds=1,
        iterations=1,
    )
    by_label = {p.label: p for p in points}
    print()
    print(format_table(
        ["config", "detected", "present", "recall", "energy (J)"],
        [
            [p.label, p.humans_detected, p.humans_present, p.recall,
             p.energy_joules]
            for p in points
        ],
    ))

    # Energy orderings: ACF configs are far cheaper than HOG configs;
    # more cameras cost more.
    assert by_label["4ACF"].energy_joules < 0.2 * by_label["4HOG"].energy_joules
    assert by_label["2HOG"].energy_joules < by_label["4HOG"].energy_joules

    # The paper's headline point: the mixed config costs roughly half
    # of 4HOG with a small accuracy gap.
    mixed, full = by_label["2HOG+2ACF"], by_label["4HOG"]
    ratio = mixed.energy_joules / full.energy_joules
    assert 0.4 < ratio < 0.7
    assert full.recall - mixed.recall < 0.15

    # Accuracy orderings: 4 cameras beat 2; HOG beats ACF per count.
    assert by_label["4HOG"].recall > by_label["2HOG"].recall
    assert by_label["2HOG"].recall > by_label["2ACF"].recall
