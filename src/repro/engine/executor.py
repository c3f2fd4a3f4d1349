"""Where a detection batch runs: in-process, where it was built.

The engine expresses every phase's detection work as one
:class:`~repro.detection.batch.DetectionBatch` — a round's (frame,
camera, algorithm) tasks as plain data — and hands it to
:class:`SerialDetectionExecutor`.  Each task seeds its own generator
from the run entropy plus its coordinates, so the results depend only
on the tasks, never on the order or grouping they execute in.

In the paper each camera runs its own detector and the controller
only fuses metadata; detection is simulated here, in one process.
"""

from __future__ import annotations

from typing import Mapping

from repro.detection.base import Detection
from repro.detection.batch import DetectionBatch, run_batch
from repro.detection.detectors import SimulatedDetector


class SerialDetectionExecutor:
    """Runs a batch in-process through :func:`run_batch`."""

    def execute(
        self,
        batch: DetectionBatch,
        detectors: Mapping[str, SimulatedDetector],
    ) -> list[list[Detection]]:
        """Run every task of ``batch``, results in task order."""
        return run_batch(detectors, batch.tasks)
