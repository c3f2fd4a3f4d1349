"""Wireless link model.

Each camera-to-controller link has a bandwidth (measurable with
iPerf-style probing, as footnote 3 of the paper suggests), a latency,
and a per-byte transmission energy scaled by link quality.  Transfer
time and energy are what the event simulator charges when a message
crosses the link.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.communication import WIFI_JOULES_PER_BYTE


@dataclass(frozen=True)
class WirelessLink:
    """Point-to-point link between a sensor and the controller.

    Attributes:
        bandwidth_bps: Achievable throughput in bits per second.
        latency_s: One-way propagation plus queueing latency.
        link_quality: >= 1; multiplies per-byte energy (weak links
            retransmit and rate-adapt downwards).
        joules_per_byte: Base radio energy per byte.
    """

    bandwidth_bps: float = 20e6
    latency_s: float = 0.005
    link_quality: float = 1.0
    joules_per_byte: float = WIFI_JOULES_PER_BYTE

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency cannot be negative")
        if self.link_quality < 1.0:
            raise ValueError("link_quality must be >= 1")

    def transfer_time(self, num_bytes: int) -> float:
        """Seconds to deliver ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return self.latency_s + 8.0 * num_bytes / self.bandwidth_bps

    def transfer_energy(self, num_bytes: int) -> float:
        """Sender-side Joules to deliver ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes * self.joules_per_byte * self.link_quality
