"""The structured event log: one stream for everything that happened.

:class:`TelemetryEvent` generalises what ``repro.faults.events``
started: faults and recoveries, controller decisions (rank / select /
downgrade with the chosen algorithms), reliability give-ups and
battery threshold crossings all become uniform records carrying the
run id, the *simulated* time, and the node involved — so one
time-sorted stream reconstructs a run end to end.

Fault-log interop: :func:`fault_log_sink` adapts an
:class:`~repro.faults.events.FaultLog` (which accepts an optional
``sink`` callback) so every fault/recovery it records is mirrored
here without the fault subsystem importing telemetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.ioutils import atomic_write_text

EVENT_SCHEMA = "repro.event.v1"


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured occurrence in a run.

    Attributes:
        time_s: Simulated time (frame cadence or event-simulator
            clock, depending on the producing layer).
        kind: Machine-readable category, e.g.
            ``"controller_decision"``, ``"battery_threshold"``,
            ``"node_crash"``, ``"delivery_gave_up"``.
        node_id: The node concerned (empty for network-wide events).
        run_id: Identifier of the producing run.
        detail: Free-form JSON-able context.
    """

    time_s: float
    kind: str
    node_id: str = ""
    run_id: str = ""
    detail: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "schema": EVENT_SCHEMA,
            "run_id": self.run_id,
            "time_s": self.time_s,
            "kind": self.kind,
            "node_id": self.node_id,
            "detail": dict(self.detail),
        }


class EventLog:
    """Append-only sink for :class:`TelemetryEvent` records."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.events: list[TelemetryEvent] = []

    def emit(
        self,
        kind: str,
        time_s: float = 0.0,
        node_id: str = "",
        **detail: object,
    ) -> TelemetryEvent:
        event = TelemetryEvent(
            time_s=time_s,
            kind=kind,
            node_id=node_id,
            run_id=self.run_id,
            detail=dict(detail),
        )
        self.events.append(event)
        return event

    def kinds(self) -> list[str]:
        """Distinct kinds in first-occurrence order."""
        seen: list[str] = []
        for event in self.events:
            if event.kind not in seen:
                seen.append(event.kind)
        return seen

    def by_kind(self, kind: str) -> list[TelemetryEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def iter_records(self) -> Iterator[dict]:
        for event in self.events:
            yield event.to_record()

    def write_jsonl(self, path: str | Path) -> int:
        records = list(self.iter_records())
        atomic_write_text(
            path,
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        )
        return len(records)


def fault_log_sink(log: EventLog) -> Callable[[object], None]:
    """A ``FaultLog(sink=...)`` callback mirroring into ``log``.

    Works on anything shaped like
    :class:`~repro.faults.events.FaultEvent` /
    :class:`~repro.faults.events.RecoveryEvent` (``time_s``, ``kind``,
    ``subject``, ``detail`` attributes).
    """

    def sink(event: object) -> None:
        log.emit(
            kind=getattr(event, "kind", "fault"),
            time_s=float(getattr(event, "time_s", 0.0)),
            node_id=str(getattr(event, "subject", "")),
            note=str(getattr(event, "detail", "")),
        )

    return sink
