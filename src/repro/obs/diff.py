"""Cross-run regression differ over metric snapshots.

Two runs of the same configuration should spend the same energy and
detect the same humans; when a change moves those numbers, this module
says by how much and whether it crossed the line.  It reduces a
``repro.metrics.v1`` snapshot to a handful of *efficiency indicators*
— the quantities the paper optimises and the resilience layer guards:

====================  =====================================  ========
indicator             source metrics                         worse
====================  =====================================  ========
energy_joules         energy_joules_total (all series)       higher
energy_per_round      energy / run_rounds_total              higher
joules_per_detection  energy / run_humans_detected_total     higher
detection_rate        detected / run_humans_present_total    lower
retransmissions       network_retransmissions_total          higher
breaker_trips         breaker_open_total (or the
                      fault_events_total{kind=breaker_open}
                      fallback)                              higher
====================  =====================================  ========

:func:`diff_runs` compares baseline → candidate per indicator against
a relative threshold (default 10%, per-indicator overrides) and only
flags movement in the *worse* direction — a run that got cheaper or
more accurate never fails the gate.  Exposed as ``python -m repro obs
diff <baseline> <candidate>``, exiting non-zero on any regression so
CI can wire it directly.

Inputs are ``--metrics-out`` JSON dumps, or ``repro.stream.v1`` JSONL
stream files (the final flush record's cumulative snapshot is used).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.live import STREAM_SCHEMA, read_stream_records
from repro.telemetry.metrics import METRICS_SCHEMA

#: Indicator -> the direction of movement that counts as a regression.
WORSE = {
    "energy_joules": "higher",
    "energy_per_round": "higher",
    "joules_per_detection": "higher",
    "detection_rate": "lower",
    "retransmissions": "higher",
    "breaker_trips": "higher",
}


def load_metrics(path: str | Path) -> dict:
    """A ``repro.metrics.v1`` payload from a snapshot or stream file."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise ValueError(f"{path}: empty metrics file")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        # Multiple records: a JSONL stream file.  Its last record
        # carries the run's final cumulative snapshot, which is what
        # the diff wants; read_stream_records also folds in rotated
        # parts and repairs a torn trailing line.
        records = read_stream_records(path)
        if not records:
            raise ValueError(f"{path}: no stream records") from None
        payload = records[-1]
    if payload.get("schema") == STREAM_SCHEMA:
        metrics = payload.get("metrics")
        if metrics is None:
            raise ValueError(
                f"{path}: stream record has no metrics snapshot"
            )
        return metrics
    if payload.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"{path}: expected a {METRICS_SCHEMA} snapshot or a "
            f"{STREAM_SCHEMA} stream, got schema "
            f"{payload.get('schema')!r}"
        )
    return payload


def _metric_total(
    payload: dict, name: str, label_filter: dict | None = None
) -> float:
    """Sum of a counter/gauge's series values (0.0 when absent)."""
    for entry in payload.get("metrics", ()):
        if entry["name"] != name or entry["type"] == "histogram":
            continue
        total = 0.0
        for series in entry["series"]:
            labels = series.get("labels", {})
            if label_filter and any(
                labels.get(k) != v for k, v in label_filter.items()
            ):
                continue
            total += float(series["value"])
        return total
    return 0.0


def extract_indicators(payload: dict) -> dict[str, float]:
    """Fold one metrics snapshot into the efficiency indicators."""
    energy = _metric_total(payload, "energy_joules_total")
    rounds = _metric_total(payload, "run_rounds_total")
    detected = _metric_total(payload, "run_humans_detected_total")
    present = _metric_total(payload, "run_humans_present_total")
    trips = _metric_total(payload, "breaker_open_total")
    if trips == 0.0:
        # Runs predating the live mirror only counted trips as fault
        # events.
        trips = _metric_total(
            payload, "fault_events_total", {"kind": "breaker_open"}
        )
    return {
        "energy_joules": energy,
        "energy_per_round": energy / rounds if rounds else 0.0,
        "joules_per_detection": (
            energy / detected if detected else 0.0
        ),
        "detection_rate": detected / present if present else 0.0,
        "retransmissions": _metric_total(
            payload, "network_retransmissions_total"
        ),
        "breaker_trips": trips,
    }


@dataclass(frozen=True)
class DiffThresholds:
    """Relative regression tolerances.

    ``default`` applies to every indicator; ``overrides`` replaces it
    per indicator (``{"joules_per_detection": 0.05}``).  A threshold
    of 0.10 means a 10% move in the worse direction fails.
    """

    default: float = 0.10
    overrides: dict[str, float] = field(default_factory=dict)

    def for_indicator(self, name: str) -> float:
        return self.overrides.get(name, self.default)


@dataclass(frozen=True)
class IndicatorDiff:
    """One indicator's baseline → candidate movement."""

    name: str
    baseline: float
    candidate: float
    relative_change: float
    threshold: float
    regressed: bool

    @property
    def direction(self) -> str:
        return WORSE[self.name]


def _relative_change(baseline: float, candidate: float) -> float:
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else math.inf
    return (candidate - baseline) / abs(baseline)


def diff_runs(
    baseline: dict,
    candidate: dict,
    thresholds: DiffThresholds | None = None,
) -> list[IndicatorDiff]:
    """Compare two metrics payloads indicator by indicator."""
    thresholds = thresholds or DiffThresholds()
    base = extract_indicators(baseline)
    cand = extract_indicators(candidate)
    out: list[IndicatorDiff] = []
    for name in WORSE:
        change = _relative_change(base[name], cand[name])
        threshold = thresholds.for_indicator(name)
        worse = -change if WORSE[name] == "lower" else change
        out.append(
            IndicatorDiff(
                name=name,
                baseline=base[name],
                candidate=cand[name],
                relative_change=change,
                threshold=threshold,
                regressed=worse > threshold,
            )
        )
    return out


def has_regression(diffs: list[IndicatorDiff]) -> bool:
    return any(diff.regressed for diff in diffs)


def render_diff(diffs: list[IndicatorDiff]) -> str:
    """The ``obs diff`` report table."""
    lines = [
        f"{'indicator':<22}  {'baseline':>12}  {'candidate':>12}  "
        f"{'change':>8}  verdict"
    ]
    for diff in diffs:
        if math.isinf(diff.relative_change):
            change = "new"
        else:
            change = f"{diff.relative_change:+.1%}"
        verdict = (
            f"REGRESSION (>{diff.threshold:.0%} {diff.direction})"
            if diff.regressed
            else "ok"
        )
        lines.append(
            f"{diff.name:<22}  {diff.baseline:>12.4f}  "
            f"{diff.candidate:>12.4f}  {change:>8}  {verdict}"
        )
    regressions = sum(1 for d in diffs if d.regressed)
    lines.append(
        f"{regressions} regression(s) across {len(diffs)} indicators"
        if regressions
        else f"no regressions across {len(diffs)} indicators"
    )
    return "\n".join(lines) + "\n"
