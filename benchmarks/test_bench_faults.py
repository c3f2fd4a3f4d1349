"""Chaos benchmark: accuracy retention under packet loss and crashes.

Sweeps a loss-rate x crash-count grid over the networked deployment
and reports, per cell, the operational detection rate, how much of the
zero-fault rate it retains, and what the faults cost in messages and
Joules.  The acceptance floor — the fixed-seed 20 %-loss + one-crash
cell must retain at least ``RETENTION_FLOOR`` of the clean rate —
doubles as the CI chaos smoke test.
"""

from repro.experiments.faults import accuracy_retention, chaos_sweep
from repro.experiments.tables import format_table
from tests.golden_utils import network_spec

RETENTION_FLOOR = 0.8
LOSS_RATES = (0.0, 0.2)
CRASH_COUNTS = (0, 1)
FRAMES = 18


def test_bench_faults(runner_ds1):
    results = chaos_sweep(
        runner_ds1,
        network_spec(FRAMES),
        loss_rates=LOSS_RATES,
        crash_counts=CRASH_COUNTS,
    )
    clean_spec, baseline = results[0]
    assert clean_spec.loss_rate == 0.0
    assert clean_spec.crash_count == 0

    rows = []
    for spec, result in results:
        retention = accuracy_retention(result, baseline)
        rows.append([
            f"{spec.loss_rate:.0%}",
            str(spec.crash_count),
            f"{result.humans_detected}/{result.humans_present}",
            f"{result.detection_rate:.3f}",
            f"{retention:.3f}",
            str(result.retransmissions),
            str(result.gave_up),
            f"{result.total_radio_joules:.2f}",
            ",".join(sorted(result.fault_kinds())) or "-",
        ])
    print()
    print(format_table(
        ["loss", "crashes", "detected", "rate", "retention",
         "rexmit", "gave_up", "J drawn", "faults"],
        rows,
    ))

    # Every cell completed and produced decisions.
    for spec, result in results:
        assert result.num_decisions >= 1
        assert result.humans_present > 0

    # The clean cell really is clean.
    assert baseline.retransmissions == 0
    assert baseline.dropped_messages == 0
    assert not baseline.fault_events

    by_cell = {
        (spec.loss_rate, spec.crash_count): result
        for spec, result in results
    }
    # Loss forces retransmissions: more transmission attempts go out
    # (each charged to its sender; the per-camera Joule delta is
    # asserted deterministically in tests/test_faults.py).
    lossy = by_cell[(0.2, 0)]
    assert lossy.retransmissions > 0
    lossy_attempts = lossy.delivered_messages + lossy.dropped_messages
    clean_attempts = baseline.delivered_messages + baseline.dropped_messages
    assert lossy_attempts > clean_attempts

    # The crash is observed, logged, and answered with a re-selection.
    crashed = by_cell[(0.0, 1)]
    assert "node_crash" in crashed.fault_kinds()
    assert "camera_marked_dead" in crashed.fault_kinds()
    assert "reselected" in [e.kind for e in crashed.recovery_events]

    # Acceptance: the worst cell keeps >= 80 % of zero-fault accuracy.
    worst = by_cell[(0.2, 1)]
    retention = accuracy_retention(worst, baseline)
    print(f"worst-cell retention: {retention:.3f} "
          f"(floor {RETENTION_FLOOR})")
    assert retention >= RETENTION_FLOOR


def test_bench_faults_reboot_recovers_capacity(runner_ds1):
    """A rebooting camera is folded back in by the next re-selection."""
    spec = network_spec(FRAMES, crash_count=1, reboot_s=25.0)
    result = spec.execute(engine=runner_ds1)
    recovery_kinds = [e.kind for e in result.recovery_events]
    print(f"\nrecovery events: {recovery_kinds}")
    assert "node_reboot" in recovery_kinds
    assert "camera_marked_alive" in recovery_kinds
    assert recovery_kinds.count("reselected") >= 2
