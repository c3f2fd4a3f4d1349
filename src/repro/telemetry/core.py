"""The :class:`Telemetry` facade and shared instrument helpers.

One ``Telemetry`` object bundles the three sinks a run needs — a
:class:`~repro.telemetry.metrics.MetricsRegistry`, a
:class:`~repro.telemetry.trace.Tracer` and an
:class:`~repro.telemetry.events.EventLog` — under one run id, and is
what gets threaded through the deployment loop.  Everything is opt-in:
instrumented code takes ``telemetry: Telemetry | None`` and skips all
recording when it is ``None``, so un-instrumented behaviour (and
bit-identical simulation output) is the default.

The module also centralises the metric names and label schemas used
across layers, so producers, the report renderer and the tests agree
on one vocabulary.
"""

from __future__ import annotations

import json
import threading
import uuid
from pathlib import Path
from typing import TYPE_CHECKING

from repro.ioutils import atomic_write_text
from repro.telemetry.alerts import AlertEngine, AlertRule
from repro.telemetry.events import EventLog, fault_log_sink
from repro.telemetry.live import TelemetrySink, stream_line
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.detection.base import Detection
    from repro.faults.events import FaultLog

#: Schema of the exporter's ``/status`` page
#: (:meth:`Telemetry.status_snapshot`).
STATUS_SCHEMA = "repro.status.v1"

#: Detection-score histogram bounds: raw detector confidences span
#: roughly [-2, 5] across the suite's algorithms.
SCORE_BUCKETS = (
    -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0
)

#: Ack round-trip latencies in simulated seconds (stop-and-wait with
#: 0.25 s initial timeout and exponential backoff).
ACK_LATENCY_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0)

#: Battery fractions whose downward crossing emits an event.
BATTERY_THRESHOLDS = (0.75, 0.5, 0.25, 0.1)


class Telemetry:
    """Metrics + trace + events for one run, under one run id."""

    def __init__(
        self,
        run_id: str | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or Tracer(run_id=self.run_id)
        self.tracer.run_id = self.run_id
        self.events = events or EventLog(run_id=self.run_id)
        self.events.run_id = self.run_id
        # Hot-loop instruments, resolved through the registry once and
        # then handed back without the get-or-create lookup.
        self._energy_counter = None
        self._battery_gauge = None
        self._detection_frames = None
        self._detection_objects = None
        self._detection_scores = None
        # Live streaming state: sinks/rules attach after construction,
        # and everything below is untouched until they do, so a run
        # without live observability pays nothing at flush points.
        #: Serialises flushes against exporter scrapes.
        self.lock = threading.Lock()
        self._sinks: list[TelemetrySink] = []
        self.alerts = AlertEngine()
        self._flush_seq = 0
        self._events_cursor = 0
        self._status: dict = {}

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def event(
        self,
        kind: str,
        time_s: float = 0.0,
        node_id: str = "",
        **detail: object,
    ) -> None:
        self.events.emit(kind, time_s=time_s, node_id=node_id, **detail)

    def fault_sink(self):
        """A ``FaultLog(sink=...)`` callback: mirrors fault/recovery
        events into the event log and counts them by kind."""
        mirror = fault_log_sink(self.events)
        counter = self.registry.counter(
            "fault_events_total",
            "Fault and recovery events recorded, by kind.",
            labels=("kind",),
        )

        def sink(event: object) -> None:
            mirror(event)
            counter.inc(kind=getattr(event, "kind", "fault"))

        return sink

    def attach_fault_log(self, log: "FaultLog") -> None:
        """Mirror an existing fault log's future events here."""
        log.sink = self.fault_sink()

    # ------------------------------------------------------------------
    # Shared instruments (get-or-create; cheap to call in hot loops)
    # ------------------------------------------------------------------
    def energy_counter(self):
        if self._energy_counter is None:
            self._energy_counter = self.registry.counter(
                "energy_joules_total",
                "Energy drawn, by node and category "
                "(processing/communication/retransmission).",
                labels=("node", "category"),
            )
        return self._energy_counter

    def battery_gauge(self):
        if self._battery_gauge is None:
            self._battery_gauge = self.registry.gauge(
                "battery_fraction_remaining",
                "Residual battery fraction per node.",
                labels=("node",),
            )
        return self._battery_gauge

    def detection_frames_counter(self):
        if self._detection_frames is None:
            self._detection_frames = self.registry.counter(
                "detection_frames_total",
                "Frames processed, by node and algorithm.",
                labels=("node", "algorithm"),
            )
        return self._detection_frames

    def detection_objects_counter(self):
        if self._detection_objects is None:
            self._detection_objects = self.registry.counter(
                "detection_objects_total",
                "Objects detected, by node and algorithm.",
                labels=("node", "algorithm"),
            )
        return self._detection_objects

    def detection_score_histogram(self):
        if self._detection_scores is None:
            self._detection_scores = self.registry.histogram(
                "detection_score",
                "Raw detector confidence distribution, by algorithm.",
                labels=("algorithm",),
                buckets=SCORE_BUCKETS,
            )
        return self._detection_scores

    def observe_detections(
        self, node_id: str, algorithm: str, detections: "list[Detection]"
    ) -> None:
        """Record one detection op's frame count, object count and
        score distribution."""
        self.detection_frames_counter().inc(
            node=node_id, algorithm=algorithm
        )
        if detections:
            self.detection_objects_counter().inc(
                len(detections), node=node_id, algorithm=algorithm
            )
            score_hist = self.detection_score_histogram()
            for det in detections:
                score_hist.observe(det.score, algorithm=algorithm)

    # ------------------------------------------------------------------
    # Live streaming (see repro.telemetry.live)
    # ------------------------------------------------------------------
    def attach_sink(self, sink: TelemetrySink) -> TelemetrySink:
        """Register a streaming sink; flushes start reaching it."""
        self._sinks.append(sink)
        return sink

    def add_alert_rule(self, rule: "AlertRule | str") -> AlertRule:
        """Register a threshold rule evaluated at every flush."""
        return self.alerts.add(rule)

    @property
    def live_enabled(self) -> bool:
        """Whether a flush does any work beyond the status update."""
        return bool(self._sinks or self.alerts.rules)

    def flush_round(self, round_index: int, time_s: float) -> str | None:
        """Fold the live state into one stream record at a round
        boundary: evaluate alert rules, emit their transitions as
        events, and hand the record to every sink.

        Called by the engine after every completed round; with no
        sinks and no rules only the (cheap) status page data is
        refreshed, so always-on instrumentation stays within the
        pinned overhead budget.  The record is encoded once, as its
        JSONL line, with the metrics snapshot taken from the
        registry's incremental encoder
        (:meth:`~repro.telemetry.metrics.MetricsRegistry.to_json`);
        every sink receives that line.  Returns the line, or ``None``
        when live streaming is off.
        """
        with self.lock:
            self._status = {
                "rounds_completed": round_index + 1,
                "sim_time_s": time_s,
            }
            if not self.live_enabled:
                return None
            if self.alerts.rules:
                fired, cleared = self.alerts.evaluate(self.registry)
                for state in fired:
                    self.events.emit(
                        "alert", time_s=time_s, **state.to_detail()
                    )
                for state in cleared:
                    self.events.emit(
                        "alert_cleared", time_s=time_s, **state.to_detail()
                    )
            new_events = [
                event.to_record()
                for event in self.events.events[self._events_cursor:]
            ]
            self._events_cursor = len(self.events.events)
            line = stream_line(
                run_id=self.run_id,
                seq=self._flush_seq,
                round_index=round_index,
                time_s=time_s,
                metrics_json=self.registry.to_json(),
                events=new_events,
                alerts=[s.to_detail() for s in self.alerts.active],
            )
            self._flush_seq += 1
        for sink in self._sinks:
            sink.emit(line)
        return line

    def prepare_resume(self, first_round: int) -> None:
        """Stitch live state for a run resuming at ``first_round``.

        Sinks drop the rounds the resumed run will flush again, and
        the event cursor skips everything already in the log (restored
        context, not new occurrences).
        """
        self._events_cursor = len(self.events.events)
        for sink in self._sinks:
            sink.on_resume(first_round)

    def close_sinks(self) -> None:
        """Close every attached sink (idempotent)."""
        for sink in self._sinks:
            sink.close()

    def status_snapshot(self) -> dict:
        """The ``/status`` page payload (caller holds :attr:`lock`)."""
        active = self.alerts.active
        return {
            "schema": STATUS_SCHEMA,
            "run_id": self.run_id,
            "rounds_completed": self._status.get("rounds_completed", 0),
            "sim_time_s": self._status.get("sim_time_s", 0.0),
            "flushes": self._flush_seq,
            "metric_series": self.registry.series_count(),
            "events_total": len(self.events),
            "alerts_active": [state.to_detail() for state in active],
            "alert_rules": [rule.expression for rule in self.alerts.rules],
        }

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_metrics(self, path: str | Path) -> None:
        """Write the metrics snapshot; ``.prom``/``.txt`` suffixes get
        the text exposition format, everything else JSON."""
        path = Path(path)
        if path.suffix in (".prom", ".txt"):
            atomic_write_text(path, self.registry.render_text())
        else:
            atomic_write_text(
                path,
                json.dumps(self.registry.snapshot(), indent=2, sort_keys=True)
                + "\n",
            )

    def write_trace(self, path: str | Path) -> int:
        self.tracer.finish()
        return self.tracer.write_jsonl(path)

    def write_events(self, path: str | Path) -> int:
        return self.events.write_jsonl(path)
