"""Ablation: intermittent high-accuracy rounds (Section VII).

The discussion section proposes running the expensive best algorithms
only in some rounds to catch objects missed during energy-saving
rounds, "at slightly increased energy costs".  This bench alternates
all-best and full-EECS rounds over the test segment and compares the
three policies.
"""

from repro.experiments.tables import format_table


def run_policies(runner):
    spec = runner.dataset.spec
    start, end = spec.train_end, spec.total_frames
    policies = {}

    policies["all_best"] = [runner.run(
        "all_best", budget=2.0, start=start, end=end
    )]
    policies["eecs"] = [runner.run(
        "full", budget=2.0, start=start, end=end
    )]

    # Intermittent: alternate 500-frame windows between policies.
    window = 500
    segments = []
    mode_cycle = ["all_best", "full"]
    for i, seg_start in enumerate(range(start, end, window)):
        mode = mode_cycle[i % 2]
        segments.append(runner.run(
            mode,
            budget=2.0,
            start=seg_start,
            end=min(seg_start + window, end),
        ))
    policies["intermittent"] = segments
    return policies


def _totals(results):
    return (
        sum(r.humans_detected for r in results),
        sum(r.humans_present for r in results),
        sum(r.energy_joules for r in results),
    )


def test_bench_ablation_intermittent(benchmark, runner_ds1):
    policies = benchmark.pedantic(
        run_policies, args=(runner_ds1,), rounds=1, iterations=1
    )
    rows = []
    totals = {}
    for name, results in policies.items():
        detected, present, energy = _totals(results)
        totals[name] = (detected, energy)
        rows.append([name, detected, present, energy])
    print()
    print(format_table(
        ["policy", "detected", "present", "energy (J)"], rows
    ))

    det_best, e_best = totals["all_best"]
    det_eecs, e_eecs = totals["eecs"]
    det_mix, e_mix = totals["intermittent"]

    # The intermittent policy sits between the extremes on energy
    # (with tolerance for detection-noise between runs).
    assert e_mix >= 0.9 * e_eecs
    assert e_mix <= e_best + 1e-9

    # ... and recovers accuracy relative to pure EECS ("only results
    # in slightly increased energy costs").
    assert det_mix >= det_eecs - 15
