"""Energy metering and ledgers.

A PowerTutor-style accounting layer: every Joule spent anywhere in a
simulation is recorded against a (camera, category) pair so that
experiment harnesses can report totals, per-camera breakdowns and
processing/communication splits — the quantities plotted in
Figs. 4-6 of the paper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.core import Telemetry


@dataclass
class EnergyLedger:
    """Energy record for one camera."""

    camera_id: str
    by_category: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )

    @property
    def total(self) -> float:
        return sum(self.by_category.values())

    def record(self, category: str, joules: float) -> None:
        if joules < 0:
            raise ValueError("cannot record negative energy")
        self.by_category[category] += joules


class EnergyMeter:
    """Network-wide energy accounting.

    With a :class:`~repro.telemetry.core.Telemetry` attached, every
    recorded Joule also increments the
    ``energy_joules_total{node,category}`` counter; accounting totals
    themselves are unaffected.
    """

    PROCESSING = "processing"
    COMMUNICATION = "communication"
    RETRANSMISSION = "retransmission"

    def __init__(self, telemetry: "Telemetry | None" = None) -> None:
        self._ledgers: dict[str, EnergyLedger] = {}
        self.telemetry = telemetry
        self._counter = (
            telemetry.energy_counter() if telemetry is not None else None
        )

    def ledger(self, camera_id: str) -> EnergyLedger:
        if camera_id not in self._ledgers:
            self._ledgers[camera_id] = EnergyLedger(camera_id=camera_id)
        return self._ledgers[camera_id]

    def record(self, camera_id: str, category: str, joules: float) -> None:
        """Record a consumption event."""
        self.ledger(camera_id).record(category, joules)
        if self._counter is not None:
            self._counter.inc(joules, node=camera_id, category=category)

    def record_processing(self, camera_id: str, joules: float) -> None:
        self.record(camera_id, self.PROCESSING, joules)

    def record_communication(self, camera_id: str, joules: float) -> None:
        self.record(camera_id, self.COMMUNICATION, joules)

    @property
    def camera_ids(self) -> list[str]:
        return list(self._ledgers)

    def total(self, camera_id: str | None = None) -> float:
        """Total Joules, for one camera or the whole network."""
        if camera_id is not None:
            return self.ledger(camera_id).total
        return sum(ledger.total for ledger in self._ledgers.values())

    def total_by_category(self, category: str) -> float:
        return sum(
            ledger.by_category.get(category, 0.0)
            for ledger in self._ledgers.values()
        )

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Nested dict copy: camera -> category -> Joules."""
        return {
            camera_id: dict(ledger.by_category)
            for camera_id, ledger in self._ledgers.items()
        }

    def restore(self, snapshot: dict[str, dict[str, float]]) -> None:
        """Adopt a :meth:`snapshot` payload (checkpoint resume).

        Bypasses the telemetry counter on purpose: the restored Joules
        were already counted when first recorded, and the resumed
        run's registry is rebuilt from its own metrics snapshot.
        """
        self._ledgers.clear()
        for camera_id, categories in snapshot.items():
            ledger = self.ledger(camera_id)
            for category, joules in categories.items():
                ledger.by_category[category] += float(joules)
