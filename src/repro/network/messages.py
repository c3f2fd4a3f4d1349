"""Typed messages exchanged between sensors and the controller.

Sizes follow Section V-A: a frame feature vector is 4180 floats
(~16 KB); detection metadata is 172 bytes per object (8 B bounding
box, 4 B probability, 160 B colour feature).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.base import Detection
from repro.energy.communication import METADATA_BYTES_PER_OBJECT

FEATURE_BYTES_PER_FRAME = 16720


#: Sequence number of a message sent outside any reliable transport.
UNSEQUENCED = -1


@dataclass
class Message:
    """Base class for network messages.

    Attributes:
        sender: Node id of the originator.
        recipient: Node id of the destination.
        seq: Per-sender sequence number stamped by a reliable
            transport; ``UNSEQUENCED`` (-1) for fire-and-forget sends.
            The 64-byte header already accounts for it.
        corrupted: Set by the simulator when a fault injector garbles
            the payload in flight.  Receivers discard corrupted
            messages without acking (a checksum failure looks like a
            loss to the sender), but *observe* the corruption — it is
            a health signal.
    """

    sender: str
    recipient: str
    seq: int = UNSEQUENCED
    corrupted: bool = False

    @property
    def size_bytes(self) -> int:
        """Wire size; subclasses override with their payload size."""
        return 64  # headers only

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass
class FeatureUpload(Message):
    """Frame features uploaded for GFK matching (Section IV-B.1)."""

    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def size_bytes(self) -> int:
        num_frames = len(np.atleast_2d(self.features))
        return 64 + num_frames * FEATURE_BYTES_PER_FRAME


@dataclass
class EnergyReport(Message):
    """Residual energy / budget notification."""

    residual_joules: float = 0.0
    budget_per_frame: float = 0.0

    @property
    def size_bytes(self) -> int:
        return 64 + 16


@dataclass
class DetectionMetadata(Message):
    """Per-frame detection metadata for accuracy assessment."""

    frame_index: int = 0
    algorithm: str = ""
    detections: list[Detection] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return 64 + METADATA_BYTES_PER_OBJECT * len(self.detections)


@dataclass
class AlgorithmAssignment(Message):
    """Controller decision: which algorithm (or none) to run."""

    algorithm: str | None = None
    threshold: float = float("nan")

    @property
    def active(self) -> bool:
        return self.algorithm is not None

    @property
    def size_bytes(self) -> int:
        return 64 + 16


@dataclass
class Ack(Message):
    """Transport-level acknowledgement of one sequenced message.

    Acks are fire-and-forget (never themselves acked): a lost ack just
    triggers a retransmission that the receiver deduplicates.
    """

    acked_seq: int = UNSEQUENCED
    acked_kind: str = ""

    @property
    def size_bytes(self) -> int:
        return 64  # header-only


@dataclass
class Heartbeat(Message):
    """Periodic liveness beacon from a camera to the controller."""

    residual_joules: float = 0.0

    @property
    def size_bytes(self) -> int:
        return 64 + 8


@dataclass
class AssessmentRequest(Message):
    """Controller trigger: run all affordable algorithms and report."""

    num_frames: int = 4
    algorithms: list[str] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return 64 + 4 + 8 * len(self.algorithms)


@dataclass
class CellReport(Message):
    """Cell leader -> coordinator: the cell's last selection outcome.

    The hierarchical ``cell`` policy's upward half: each
    re-calibration interval the cell leader reports how its local
    selection fared against the desired accuracy, and the coordinator
    re-allocates budget scales from the fleet-wide picture.
    """

    cell_id: str = ""
    num_cameras: int = 0
    achieved_objects: float = 0.0
    desired_objects: float = 0.0

    @property
    def size_bytes(self) -> int:
        return 64 + 8 + 4 + 8 + 8


@dataclass
class BudgetGrant(Message):
    """Coordinator -> cell leader: the cell's budget scale for the
    coming interval (the downward half of the hierarchy)."""

    cell_id: str = ""
    scale: float = 1.0

    @property
    def size_bytes(self) -> int:
        return 64 + 8 + 8
