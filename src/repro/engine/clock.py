"""Simulated time for the deployment engine.

The frame-loop deployment advances time in whole rounds: simulated
time is a pure function of the frame index and the processing cadence
(one frame every ``seconds_per_frame``, Section VI-E).  The clock is
the single time source the engine wires into everything that
timestamps — the controller's decision events and the instrumented
batteries — replacing the ad-hoc ``_sim_time_s`` attribute the runner
used to thread around.

The discrete-event network environment does not use this clock: there
the :class:`~repro.network.simulator.EventSimulator`'s ``now`` is the
authoritative time source, and the engine wires *that* into the
controller instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimulationClock:
    """Frame-cadence simulated time.

    Attributes:
        seconds_per_frame: Operational cadence (paper: 2 s/frame).
        now_s: Current simulated time in seconds.
    """

    seconds_per_frame: float = 2.0
    now_s: float = 0.0

    def time_at_frame(self, frame_index: int) -> float:
        """Simulated time at which ``frame_index`` is processed."""
        return frame_index * self.seconds_per_frame

    def advance_to_frame(self, frame_index: int) -> float:
        """Move the clock to a frame's processing time and return it."""
        self.now_s = self.time_at_frame(frame_index)
        return self.now_s

    def snapshot(self) -> dict:
        """Checkpointable state (cadence included for validation)."""
        return {
            "seconds_per_frame": self.seconds_per_frame,
            "now_s": self.now_s,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot` payload (checkpoint resume)."""
        self.seconds_per_frame = float(state["seconds_per_frame"])
        self.now_s = float(state["now_s"])
