"""Communication energy model.

The paper estimates each camera's communication cost ``C_j`` by
transferring JPEG-compressed frames over WiFi in good conditions and
monitoring the consumed energy; since sensors actually transfer only
cropped detection areas, using the whole frame gives a conservative
upper bound (Section VI, "Computing energy costs and budget").  ``C_j``
is independent of the assigned algorithm but depends on the capture
resolution and the link quality.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Effective JPEG compression: bytes per pixel for surveillance-style
#: content at default quality.
JPEG_BYTES_PER_PIXEL = 0.15

#: WiFi transmission energy per byte on a smartphone radio in good
#: conditions (order of magnitude from PowerTutor-style measurements).
WIFI_JOULES_PER_BYTE = 5.0e-7

#: Detection metadata uploaded per object (Section V-A): 8 B bounding
#: box, 4 B probability and a 160 B colour feature.
METADATA_BYTES_PER_OBJECT = 172


def jpeg_frame_bytes(width: int, height: int) -> int:
    """Approximate JPEG size of a full frame."""
    if width <= 0 or height <= 0:
        raise ValueError("resolution must be positive")
    return int(round(width * height * JPEG_BYTES_PER_PIXEL))


@dataclass(frozen=True)
class CommunicationEnergyModel:
    """Per-camera communication cost model.

    Attributes:
        width: Capture width in pixels.
        height: Capture height in pixels.
        link_quality: Multiplier >= 1 on the per-byte energy; 1.0 means
            the paper's "good conditions", larger values model weaker
            links that need retransmissions/lower rates.
        joules_per_byte: Base radio energy per byte.
    """

    width: int
    height: int
    link_quality: float = 1.0
    joules_per_byte: float = WIFI_JOULES_PER_BYTE

    def __post_init__(self) -> None:
        if self.link_quality < 1.0:
            raise ValueError(
                f"link_quality must be >= 1, got {self.link_quality}"
            )
        if self.joules_per_byte <= 0:
            raise ValueError("joules_per_byte must be positive")

    def transfer_energy(self, num_bytes: int) -> float:
        """Joules to ship ``num_bytes`` to the controller."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes * self.joules_per_byte * self.link_quality

    def per_frame_cost(self) -> float:
        """The conservative per-frame bound ``C_j``: one full JPEG frame."""
        return self.transfer_energy(jpeg_frame_bytes(self.width, self.height))

    def metadata_cost(self, num_objects: int) -> float:
        """Energy to upload detection metadata for ``num_objects``."""
        if num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        return self.transfer_energy(METADATA_BYTES_PER_OBJECT * num_objects)
