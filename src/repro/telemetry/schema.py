"""Documented schemas for the telemetry dump formats, plus validators.

Three artefacts leave a run:

``--metrics-out`` (JSON, ``repro.metrics.v1``)::

    {"schema": "repro.metrics.v1",
     "metrics": [{"name": str, "type": "counter"|"gauge"|"histogram",
                  "help": str, "labels": [str, ...],
                  ("buckets": [float, ...],)      # histograms only
                  "series": [{"labels": {str: str},
                              "value": float}     # counter/gauge
                             |{"labels": {str: str},
                               "bucket_counts": [int, ...],
                               "count": int, "sum": float}]}]}

``--trace-out`` (JSONL, one ``repro.span.v1`` record per line)::

    {"schema": "repro.span.v1", "run_id": str, "span_id": int,
     "parent_id": int|null, "name": str, "start_s": float,
     "duration_s": float, "attributes": {...}}

``--events-out`` (JSONL, one ``repro.event.v1`` record per line)::

    {"schema": "repro.event.v1", "run_id": str, "time_s": float,
     "kind": str, "node_id": str, "detail": {...}}

The ``kind`` vocabulary is open-ended; the graceful-degradation layer
added these kinds (all ordinary ``repro.event.v1`` records — the
record shape is unchanged):

* data-plane fault injections: ``sensor_fault``,
  ``calibration_drift``, ``clock_skew``, ``message_corruption``, each
  with a matching ``*_cleared`` recovery when its window closes;
* ``message_corrupted`` — a receiver discarded a garbled payload
  (the sender's retransmission timer redelivers it);
* ``transport_give_up`` — reliable delivery exhausted its retries;
  ``detail`` names the message kind, sequence number, recipient and
  attempt count;
* camera-link circuit breakers: ``breaker_open`` /
  ``breaker_half_open`` (faults) and ``breaker_closed`` (recovery);
* the staged ladder: ``camera_degraded`` / ``camera_quarantined``
  (faults) and ``quarantine_probe`` / ``camera_readmitted`` /
  ``camera_recalibrated`` (recoveries), with controller
  ``reselected`` events recording the substitutions they trigger.

The predictive wake-up policy audits every gate decision (one event
per camera per assessed round, ``node_id`` = the camera):

* ``camera_wake`` / ``camera_skip`` — the camera was assessed /
  slept through the round.  ``detail`` carries ``round`` (round
  index), ``predicted`` (the regressor's activity forecast, ``null``
  before the first observation), ``threshold`` (the configured wake
  threshold) and ``reason``: ``warmup`` (regressor not warmed up
  yet), ``probe`` (forced staleness-bounding wake), ``rationed``
  (wanted to sleep but lost the sleep-slot ration),
  ``predicted_active`` (forecast above threshold), ``quorum``
  (rescued so at least one camera stays awake) for wakes, and
  ``predicted_idle`` for skips;
* ``camera_low_energy`` — a woken selected camera predicted below
  ``low_energy_below`` was pinned to its cheapest affordable
  detector; ``detail`` carries ``predicted``, ``threshold``,
  ``previous`` (the selector's choice) and ``algorithm`` (the
  low-energy profile it was rewritten to).

``--stream-out`` (JSONL, one ``repro.stream.v1`` record per completed
round/tick, appended atomically *during* the run, fsynced at
rotation and close)::

    {"schema": "repro.stream.v1", "run_id": str,
     "seq": int,              # flush counter, monotone
     "round": int,            # completed round (run) / tick (chaos)
     "time_s": float,         # simulated clock at the flush
     "metrics": {...},        # cumulative repro.metrics.v1 snapshot
     "events": [{...}, ...],  # repro.event.v1 records since the
                              # previous flush
     "alerts": [{...}, ...]}  # currently firing alert rules:
                              # {"rule", "metric", "labels", "value",
                              #  "threshold", "op"}

A stitched stream (after any number of kill-and-resume cycles) has
``round`` exactly ``0..N-1`` in file order;
:func:`repro.telemetry.live.check_stream_contiguous` asserts that.
The live HTTP exporter additionally serves a ``repro.status.v1`` JSON
object on ``/status`` (same fields as
:meth:`repro.telemetry.core.Telemetry.status_snapshot`); it is a
point-in-time page, never written to disk.

Alert-rule transitions reuse ``repro.event.v1`` with kinds ``alert``
and ``alert_cleared``; ``detail`` carries the firing rule expression,
metric, series labels, observed value, threshold and operator.

A fifth versioned artefact, the crash-safe deployment checkpoint
(``--checkpoint-dir``, ``repro.checkpoint.v2``), is documented here
for completeness but owned by :mod:`repro.checkpoint.store` (telemetry
sits below checkpointing in the layer contract, so the validator —
``CheckpointStore.load`` — lives there)::

    {"schema": "repro.checkpoint.v2",   # one compact line, keys sorted
     "kind": "run"|"chaos",
     "fingerprint": {...},    # the run configuration that wrote it;
                              # load() refuses a mismatched resume
     "state": {...}}          # kind-specific payload: "run" carries
                              # restorable engine state, "chaos"
                              # carries replay-verification markers
                              # (counters, SHA-256 of each event log)

The validators raise :class:`SchemaError` naming the offending field;
they are used by the local pytest suite and by the ``telemetry-smoke``
CI job, so the documented schema and the emitted bytes cannot drift
apart silently.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.events import EVENT_SCHEMA
from repro.telemetry.live import STREAM_SCHEMA, read_stream_records
from repro.telemetry.metrics import METRICS_SCHEMA
from repro.telemetry.trace import SPAN_SCHEMA


class SchemaError(ValueError):
    """A telemetry payload does not match its documented schema."""


def _require(record: dict, name: str, types, where: str):
    if name not in record:
        raise SchemaError(f"{where}: missing field {name!r}")
    value = record[name]
    if not isinstance(value, types):
        raise SchemaError(
            f"{where}: field {name!r} has type {type(value).__name__}, "
            f"expected {types}"
        )
    return value


def validate_span_record(record: dict, where: str = "span") -> None:
    if _require(record, "schema", str, where) != SPAN_SCHEMA:
        raise SchemaError(f"{where}: schema is not {SPAN_SCHEMA!r}")
    _require(record, "run_id", str, where)
    _require(record, "span_id", int, where)
    if record.get("parent_id") is not None:
        _require(record, "parent_id", int, where)
    name = _require(record, "name", str, where)
    if not name:
        raise SchemaError(f"{where}: empty span name")
    _require(record, "start_s", (int, float), where)
    duration = _require(record, "duration_s", (int, float), where)
    if duration < 0:
        raise SchemaError(f"{where}: negative duration")
    _require(record, "attributes", dict, where)


def validate_event_record(record: dict, where: str = "event") -> None:
    if _require(record, "schema", str, where) != EVENT_SCHEMA:
        raise SchemaError(f"{where}: schema is not {EVENT_SCHEMA!r}")
    _require(record, "run_id", str, where)
    _require(record, "time_s", (int, float), where)
    if not _require(record, "kind", str, where):
        raise SchemaError(f"{where}: empty event kind")
    _require(record, "node_id", str, where)
    _require(record, "detail", dict, where)


def validate_metrics_payload(payload: dict, where: str = "metrics") -> None:
    if _require(payload, "schema", str, where) != METRICS_SCHEMA:
        raise SchemaError(f"{where}: schema is not {METRICS_SCHEMA!r}")
    metrics = _require(payload, "metrics", list, where)
    for entry in metrics:
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: metric entry is not an object")
        name = _require(entry, "name", str, where)
        here = f"{where}.{name}"
        kind = _require(entry, "type", str, here)
        if kind not in ("counter", "gauge", "histogram"):
            raise SchemaError(f"{here}: unknown type {kind!r}")
        _require(entry, "help", str, here)
        labels = _require(entry, "labels", list, here)
        series = _require(entry, "series", list, here)
        if kind == "histogram":
            buckets = _require(entry, "buckets", list, here)
            if sorted(buckets) != buckets:
                raise SchemaError(f"{here}: buckets not sorted")
        for i, s in enumerate(series):
            swhere = f"{here}.series[{i}]"
            slabels = _require(s, "labels", dict, swhere)
            if set(slabels) != set(labels):
                raise SchemaError(
                    f"{swhere}: label keys {sorted(slabels)} do not "
                    f"match declared {sorted(labels)}"
                )
            if kind == "histogram":
                counts = _require(s, "bucket_counts", list, swhere)
                if len(counts) != len(entry["buckets"]) + 1:
                    raise SchemaError(
                        f"{swhere}: expected "
                        f"{len(entry['buckets']) + 1} bucket counts"
                    )
                count = _require(s, "count", int, swhere)
                if sum(counts) != count:
                    raise SchemaError(
                        f"{swhere}: bucket counts sum to {sum(counts)}, "
                        f"count says {count}"
                    )
                _require(s, "sum", (int, float), swhere)
            else:
                _require(s, "value", (int, float), swhere)


def validate_stream_record(record: dict, where: str = "stream") -> None:
    if _require(record, "schema", str, where) != STREAM_SCHEMA:
        raise SchemaError(f"{where}: schema is not {STREAM_SCHEMA!r}")
    _require(record, "run_id", str, where)
    seq = _require(record, "seq", int, where)
    if seq < 0:
        raise SchemaError(f"{where}: negative seq")
    round_index = _require(record, "round", int, where)
    if round_index < 0:
        raise SchemaError(f"{where}: negative round")
    _require(record, "time_s", (int, float), where)
    validate_metrics_payload(
        _require(record, "metrics", dict, where), where=f"{where}.metrics"
    )
    events = _require(record, "events", list, where)
    for i, event in enumerate(events):
        validate_event_record(event, where=f"{where}.events[{i}]")
    alerts = _require(record, "alerts", list, where)
    for i, alert in enumerate(alerts):
        awhere = f"{where}.alerts[{i}]"
        _require(alert, "rule", str, awhere)
        _require(alert, "metric", str, awhere)
        _require(alert, "labels", dict, awhere)
        _require(alert, "value", (int, float), awhere)
        _require(alert, "threshold", (int, float), awhere)
        _require(alert, "op", str, awhere)


def _load_jsonl(path: str | Path) -> list[dict]:
    records = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}")
    return records


def validate_trace_file(path: str | Path) -> int:
    """Validate a span JSONL dump; returns the span count."""
    records = _load_jsonl(path)
    ids = set()
    for i, record in enumerate(records):
        validate_span_record(record, where=f"{path}:{i + 1}")
        ids.add(record["span_id"])
    for i, record in enumerate(records):
        parent = record.get("parent_id")
        if parent is not None and parent not in ids:
            raise SchemaError(
                f"{path}:{i + 1}: parent_id {parent} references no span"
            )
    return len(records)


def validate_events_file(path: str | Path) -> int:
    """Validate an event JSONL dump; returns the event count."""
    records = _load_jsonl(path)
    for i, record in enumerate(records):
        validate_event_record(record, where=f"{path}:{i + 1}")
    return len(records)


def validate_stream_file(path: str | Path) -> int:
    """Validate a (possibly rotated) stream; returns the record count.

    Reads through :func:`repro.telemetry.live.read_stream_records`,
    so rotated parts are included and a torn trailing line — legal
    mid-run — is ignored rather than flagged.
    """
    records = read_stream_records(path)
    for i, record in enumerate(records):
        validate_stream_record(record, where=f"{path}[{i}]")
    return len(records)


def validate_metrics_file(path: str | Path) -> int:
    """Validate a metrics JSON dump; returns the metric count."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}")
    validate_metrics_payload(payload, where=str(path))
    return len(payload["metrics"])
