"""Telemetry: always-on metrics, run traces and structured events.

The observability substrate of the reproduction.  One
:class:`~repro.telemetry.core.Telemetry` object bundles:

* a :class:`~repro.telemetry.metrics.MetricsRegistry` of
  Prometheus-style ``Counter`` / ``Gauge`` / ``Histogram`` instruments
  (labels, fixed-bucket histograms, snapshot + merge, JSON and text
  exposition) cheap enough to stay on in the hot loops;
* a :class:`~repro.telemetry.trace.Tracer` of hierarchical spans
  (run → round → phase → per-camera op) — the repo's only timer —
  exported as JSONL;
* an :class:`~repro.telemetry.events.EventLog` of
  :class:`~repro.telemetry.events.TelemetryEvent` records — controller
  decisions, battery threshold crossings, reliability give-ups, and
  every fault/recovery the fault subsystem logs.

On top of the snapshot-at-exit dumps, the *live* layer streams the
same state during a run: per-round flush records
(``repro.stream.v1``) to pluggable sinks
(:class:`~repro.telemetry.live.JsonlStreamSink`), threshold alert rules
(:class:`~repro.telemetry.alerts.AlertEngine`) whose transitions land
in the event log, and an HTTP ``/metrics`` + ``/status`` endpoint
(:class:`~repro.telemetry.exporter.MetricsExporter`).  The package
does not re-export the exporter: import it from
:mod:`repro.telemetry.exporter`, so only a process that serves metrics
loads ``http.server``.

All instrumentation is opt-in (``telemetry=None`` everywhere) and
never touches a random stream, so telemetry-enabled and -disabled
runs produce bit-identical simulation output.
"""

from repro.telemetry.alerts import AlertEngine, AlertRule, AlertRuleError
from repro.telemetry.core import (
    ACK_LATENCY_BUCKETS,
    BATTERY_THRESHOLDS,
    SCORE_BUCKETS,
    Telemetry,
)
from repro.telemetry.events import EventLog, TelemetryEvent, fault_log_sink
from repro.telemetry.live import (
    STREAM_SCHEMA,
    JsonlStreamSink,
    TelemetrySink,
    check_stream_contiguous,
    read_stream_records,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.telemetry.trace import Span, Tracer

__all__ = [
    "ACK_LATENCY_BUCKETS",
    "AlertEngine",
    "AlertRule",
    "AlertRuleError",
    "BATTERY_THRESHOLDS",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonlStreamSink",
    "MetricError",
    "MetricsRegistry",
    "SCORE_BUCKETS",
    "STREAM_SCHEMA",
    "Span",
    "Telemetry",
    "TelemetryEvent",
    "TelemetrySink",
    "Tracer",
    "check_stream_contiguous",
    "fault_log_sink",
    "read_stream_records",
]
