"""Structured fault and recovery records.

Everything the fault subsystem does — injected crashes, drained
batteries, severed links, dropped packets that exhausted their retry
budget, liveness declarations and controller re-selections — is
recorded as a typed event with a simulated timestamp, so a chaos run's
report can show *what* failed, *when*, and *how the system reacted*
instead of a bare accuracy number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union


@dataclass(frozen=True)
class FaultEvent:
    """Something broke (or was broken on purpose).

    Attributes:
        time_s: Simulated time of the fault.
        kind: Machine-readable category, e.g. ``"node_crash"``,
            ``"battery_exhausted"``, ``"link_partition"``,
            ``"delivery_gave_up"``, ``"camera_marked_dead"``.
        subject: The node or ``"a<->b"`` link pair affected.
        detail: Free-form context (message kind, residual energy, ...).
    """

    time_s: float
    kind: str
    subject: str
    detail: str = ""


@dataclass(frozen=True)
class RecoveryEvent:
    """The system healed or compensated.

    Attributes:
        time_s: Simulated time of the recovery action.
        kind: Machine-readable category, e.g. ``"node_reboot"``,
            ``"link_restored"``, ``"camera_marked_alive"``,
            ``"reselected"``.
        subject: The node or link pair involved.
        detail: Free-form context (the new assignment, ...).
    """

    time_s: float
    kind: str
    subject: str
    detail: str = ""


@dataclass
class FaultLog:
    """An append-only, time-ordered log shared by injector and nodes.

    An optional ``sink`` callback sees every recorded event as it is
    appended — the telemetry subsystem attaches one to mirror faults
    and recoveries into its unified event stream without this module
    depending on telemetry.
    """

    faults: list[FaultEvent] = field(default_factory=list)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    sink: Union[
        Callable[[Union[FaultEvent, RecoveryEvent]], None], None
    ] = None

    def fault(
        self, time_s: float, kind: str, subject: str, detail: str = ""
    ) -> FaultEvent:
        event = FaultEvent(time_s, kind, subject, detail)
        self.faults.append(event)
        if self.sink is not None:
            self.sink(event)
        return event

    def recovery(
        self, time_s: float, kind: str, subject: str, detail: str = ""
    ) -> RecoveryEvent:
        event = RecoveryEvent(time_s, kind, subject, detail)
        self.recoveries.append(event)
        if self.sink is not None:
            self.sink(event)
        return event

    def __len__(self) -> int:
        return len(self.faults) + len(self.recoveries)
