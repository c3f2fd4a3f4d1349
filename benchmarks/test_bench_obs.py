"""Live-streaming overhead benchmarks.

The always-on telemetry budget (``test_bench_micro``) pins plain
instrumentation at <=5% of an uninstrumented run.  This file pins the
*live* layer on top of that: per-round ``flush_round`` calls feeding
a JSONL sink plus an alert rule must add <=5% over an
instrumented-but-not-streamed run.  The recorded evidence lives in
``BENCH_obs.json``; regenerate it with the recipe in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks._bench_util import (
    assert_overhead_within,
    env_float,
    interleaved_best,
    timed,
)
from repro.engine.spec import DeploymentSpec
from repro.telemetry import JsonlStreamSink, Telemetry

START, END = 1000, 2800
# Measured well under 2% on an unloaded box; 5% is the acceptance
# budget with headroom for shared-CI noise.
OBS_OVERHEAD_BUDGET = env_float("OBS_OVERHEAD_BUDGET", 0.05)


def _spec() -> DeploymentSpec:
    return DeploymentSpec(
        dataset_number=1, policy="full", budget=2.0, start=START, end=END
    )


def _timed_run(spec: DeploymentSpec, telemetry: Telemetry) -> float:
    engine = spec.build_engine(telemetry=telemetry)
    elapsed, _ = timed(spec.execute, engine=engine)
    return elapsed


def _live_telemetry(tmp_path: Path) -> Telemetry:
    telemetry = Telemetry(run_id="bench-live")
    telemetry.attach_sink(JsonlStreamSink(tmp_path / "stream.jsonl"))
    telemetry.add_alert_rule("battery_fraction_remaining < 0.25")
    return telemetry


def _overhead_thunks(spec: DeploymentSpec, tmp_path: Path):
    """The two interleaved variants: instrumented-only vs live."""

    def plain() -> float:
        return _timed_run(spec, Telemetry(run_id="bench-plain"))

    def live() -> float:
        telemetry = _live_telemetry(tmp_path)
        try:
            return _timed_run(spec, telemetry)
        finally:
            telemetry.close_sinks()

    return plain, live


def test_live_flush_overhead_under_budget(tmp_path):
    """Interleaved min-of-N: instrumented run with a live sink + alert
    rule vs instrumented run without."""
    spec = _spec()
    _timed_run(spec, Telemetry(run_id="warm"))  # warm caches
    best_plain, best_live = interleaved_best(
        5, *_overhead_thunks(spec, tmp_path)
    )
    assert_overhead_within(
        best_live, best_plain, OBS_OVERHEAD_BUDGET, "live streaming"
    )


def test_bench_obs_json_records_acceptance():
    """BENCH_obs.json pins <=5% live-flush overhead; keep the
    recorded evidence self-consistent."""
    path = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    data = json.loads(path.read_text())
    assert data["units"] == "seconds_best_of_n"
    assert sorted(data["results"]) == ["serial"]
    entry = data["results"]["serial"]
    overhead = entry["live_seconds"] / entry["plain_seconds"] - 1.0
    assert overhead == pytest.approx(entry["overhead_fraction"], abs=0.005)
    assert entry["overhead_fraction"] <= 0.05, (
        f"recorded overhead {entry['overhead_fraction']:.1%} breaks the "
        "pinned 5% budget"
    )
