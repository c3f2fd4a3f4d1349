"""Battery state and per-frame energy budgets.

Section VI: "the energy budget is computed by first defining an
expected operation time (e.g., 6 hours) and an expected frame rate
(e.g., image frames are processed every 2 seconds) ... the residual
energy capacity is divided by the number of frames to compute the
energy budget for each frame."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.core import Telemetry


def frame_budget(
    residual_joules: float,
    operation_time_s: float,
    seconds_per_frame: float,
) -> float:
    """Per-frame energy budget ``B_j``.

    Args:
        residual_joules: Remaining battery capacity.
        operation_time_s: Required remaining operation time.
        seconds_per_frame: Processing cadence (e.g. one frame every 2 s).

    Returns:
        Joules available per processed frame.
    """
    if residual_joules < 0:
        raise ValueError("residual energy cannot be negative")
    if operation_time_s <= 0 or seconds_per_frame <= 0:
        raise ValueError("operation time and cadence must be positive")
    frames_needed = operation_time_s / seconds_per_frame
    return residual_joules / frames_needed


class Battery:
    """A camera sensor's battery with draw accounting.

    A typical smartphone battery holds ~10 Wh = 36 kJ; the default
    matches the Asus Zen II's ~3000 mAh pack.

    With a :class:`~repro.telemetry.core.Telemetry` attached (see
    :meth:`instrument`), every draw updates the per-node
    ``battery_fraction_remaining`` gauge, and downward crossings of
    the configured fraction thresholds emit a ``battery_threshold``
    event plus a ``battery_threshold_crossings_total`` increment.
    Instrumentation never alters the drawn amounts.
    """

    def __init__(self, capacity_joules: float = 41000.0) -> None:
        if capacity_joules <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_joules = capacity_joules
        self._consumed = 0.0
        self._telemetry: "Telemetry | None" = None
        self._node_id = ""
        self._clock: Callable[[], float] | None = None
        self._thresholds: tuple[float, ...] = ()
        self._gauge = None

    def instrument(
        self,
        telemetry: "Telemetry",
        node_id: str,
        clock: Callable[[], float] | None = None,
        thresholds: tuple[float, ...] | None = None,
    ) -> "Battery":
        """Attach telemetry; returns ``self`` for chaining.

        Args:
            telemetry: Sink for the gauge, counter and events.
            node_id: Label value identifying this battery's node.
            clock: Simulated-time source for threshold events
                (defaults to a constant 0.0).
            thresholds: Remaining-fraction levels to watch; defaults
                to :data:`repro.telemetry.core.BATTERY_THRESHOLDS`.
        """
        from repro.telemetry.core import BATTERY_THRESHOLDS

        self._telemetry = telemetry
        self._node_id = node_id
        self._clock = clock
        self._thresholds = tuple(
            sorted(
                BATTERY_THRESHOLDS if thresholds is None else thresholds,
                reverse=True,
            )
        )
        self._gauge = telemetry.battery_gauge()
        self._gauge.set(self.fraction_remaining, node=node_id)
        return self

    def _observe_draw(self, before_fraction: float) -> None:
        telemetry = self._telemetry
        if telemetry is None:
            return
        after = self.fraction_remaining
        self._gauge.set(after, node=self._node_id)
        for threshold in self._thresholds:
            if after < threshold <= before_fraction:
                now = self._clock() if self._clock is not None else 0.0
                telemetry.registry.counter(
                    "battery_threshold_crossings_total",
                    "Downward battery-fraction threshold crossings.",
                    labels=("node", "threshold"),
                ).inc(node=self._node_id, threshold=f"{threshold:g}")
                telemetry.event(
                    "battery_threshold",
                    time_s=now,
                    node_id=self._node_id,
                    threshold=threshold,
                    residual_joules=self.residual,
                )

    @property
    def consumed(self) -> float:
        return self._consumed

    @property
    def residual(self) -> float:
        return max(0.0, self.capacity_joules - self._consumed)

    @property
    def is_depleted(self) -> bool:
        return self.residual <= 0.0

    @property
    def fraction_remaining(self) -> float:
        return self.residual / self.capacity_joules

    def draw(self, joules: float) -> float:
        """Consume energy; returns the amount actually drawn (clamped
        at the residual capacity).

        Overdraw never goes negative: a draw larger than the residual
        depletes the battery exactly, and callers can tell from the
        shortfall in the return value (and from :attr:`is_depleted`)
        that the node must stop processing and transmitting.
        """
        if joules < 0:
            raise ValueError("cannot draw negative energy")
        before = self.fraction_remaining
        drawn = min(joules, self.residual)
        self._consumed += drawn
        if self._telemetry is not None:
            self._observe_draw(before)
        return drawn

    def restore_consumed(self, joules: float) -> None:
        """Adopt a checkpointed consumed total without re-drawing.

        Resume support: the energy was drawn (and its telemetry
        emitted) by the original process, so restoring must not run
        the draw path again — it would double-count threshold events.
        Only the gauge is refreshed to the restored level.
        """
        if joules < 0:
            raise ValueError("consumed energy cannot be negative")
        if joules > self.capacity_joules:
            raise ValueError(
                f"consumed {joules} J exceeds capacity "
                f"{self.capacity_joules} J"
            )
        self._consumed = joules
        if self._gauge is not None:
            self._gauge.set(self.fraction_remaining, node=self._node_id)

    def budget_for(
        self, operation_time_s: float, seconds_per_frame: float
    ) -> float:
        """Current per-frame budget given the residual capacity."""
        return frame_budget(self.residual, operation_time_s, seconds_per_frame)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Battery(residual={self.residual:.0f} J of "
            f"{self.capacity_joules:.0f} J)"
        )
