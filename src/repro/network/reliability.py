"""Reliable delivery over the lossy event simulator.

A :class:`ReliableTransport` wraps one node's sends with the classic
stop-and-wait machinery: every outgoing message is stamped with a
per-sender sequence number, held as pending until the peer's
:class:`~repro.network.messages.Ack` arrives, and retransmitted on
timeout with exponential backoff plus deterministic seeded jitter, up
to a retry cap.  Receivers ack every sequenced message (including
duplicates — the original ack may have been the lost packet) and
suppress duplicates by remembering seen sequence numbers per peer.

Retransmissions go through the node's normal ``send`` path, so every
attempt charges the sender's radio energy — lossy links cost Joules,
exactly the coupling the paper's energy model is about.

The transport is strictly opt-in: nodes constructed without it behave
exactly as before, and unsequenced messages (``seq == UNSEQUENCED``)
pass through an enabled receiver untouched, so reliable and legacy
nodes interoperate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.network.messages import Ack, Message, UNSEQUENCED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.events import FaultLog
    from repro.network.simulator import Node
    from repro.resilience.breaker import CircuitBreaker
    from repro.telemetry.core import Telemetry


def node_seed(node_id: str) -> int:
    """A stable per-node seed derived from the node id.

    CRC32 rather than ``hash()`` so the stream survives interpreter
    restarts and ``PYTHONHASHSEED`` changes.
    """
    return zlib.crc32(node_id.encode("utf-8"))


@dataclass
class _Pending:
    """One in-flight message awaiting acknowledgement."""

    message: Message
    attempts: int = 0
    first_sent_at: float = 0.0


class ReliableTransport:
    """Ack/retry/dedup state machine for one node.

    Attributes:
        retransmissions: Total timeout-triggered resends.
        gave_up: Messages abandoned after the retry cap.
        duplicates_dropped: Received duplicates suppressed.
        acks_sent: Acknowledgements emitted.
    """

    def __init__(
        self,
        node: "Node",
        timeout_s: float = 0.25,
        max_retries: int = 5,
        backoff_factor: float = 2.0,
        jitter_s: float = 0.02,
        rng: np.random.Generator | None = None,
        on_give_up: Callable[[Message], None] | None = None,
        telemetry: "Telemetry | None" = None,
        fault_log: "FaultLog | None" = None,
        breaker_for: "Callable[[str], CircuitBreaker | None] | None" = None,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        self.node = node
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.jitter_s = jitter_s
        self.on_give_up = on_give_up
        self.rng = (
            rng
            if rng is not None
            else np.random.default_rng(node_seed(node.node_id))
        )
        self.telemetry = telemetry
        self.fault_log = fault_log
        #: Optional per-recipient circuit-breaker lookup (the
        #: resilience coordinator's breakers).  ``None`` — the default
        #: — means every send is allowed, exactly the legacy behavior.
        self.breaker_for = breaker_for
        self._next_seq = 0
        self._pending: dict[int, _Pending] = {}
        self._seen: dict[str, set[int]] = {}
        self.retransmissions = 0
        self.gave_up = 0
        self.breaker_blocked = 0
        self.duplicates_dropped = 0
        self.acks_sent = 0
        #: True while this transport is re-sending a timed-out message
        #: — lets the owning node attribute the radio energy of that
        #: attempt to the "retransmission" category.
        self.is_retransmitting = False

    def _count(self, name: str, help: str) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter(
                name, help, labels=("node",)
            ).inc(node=self.node.node_id)

    def _now(self) -> float:
        sim = self.node.simulator
        return sim.now if sim is not None else 0.0

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def _breaker(self, peer_id: str) -> "CircuitBreaker | None":
        if self.breaker_for is None:
            return None
        return self.breaker_for(peer_id)

    def send(self, message: Message) -> int:
        """Stamp, transmit, and track a message until it is acked.

        Returns the assigned sequence number.  When a circuit breaker
        guards the recipient's link and refuses the send, the message
        is abandoned immediately — no radio energy, no retry ladder —
        and the give-up callback fires as if the retries had been
        exhausted.
        """
        seq = self._next_seq
        self._next_seq += 1
        message.seq = seq
        breaker = self._breaker(message.recipient)
        if breaker is not None and not breaker.allow(self._now()):
            self.breaker_blocked += 1
            self._count(
                "network_breaker_blocked_total",
                "Sends refused outright by an open circuit breaker.",
            )
            if self.on_give_up is not None:
                self.on_give_up(message)
            return seq
        self._pending[seq] = _Pending(message, first_sent_at=self._now())
        self.node.send(message)
        self._arm_timeout(seq)
        return seq

    def _arm_timeout(self, seq: int) -> None:
        sim = self.node.simulator
        if sim is None:
            raise RuntimeError(
                f"node {self.node.node_id!r} is not attached to a simulator"
            )
        pending = self._pending[seq]
        delay = self.timeout_s * self.backoff_factor**pending.attempts
        if self.jitter_s > 0:
            delay += float(self.rng.uniform(0.0, self.jitter_s))
        sim.schedule(delay, lambda: self._on_timeout(seq))

    def _on_timeout(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None:
            return  # acked in the meantime
        if pending.attempts >= self.max_retries:
            del self._pending[seq]
            self.gave_up += 1
            self._count(
                "network_give_ups_total",
                "Messages abandoned after exhausting their retry cap.",
            )
            message = pending.message
            if self.fault_log is not None:
                self.fault_log.fault(
                    self._now(),
                    "transport_give_up",
                    self.node.node_id,
                    f"{message.kind} seq={seq} to {message.recipient} "
                    f"after {pending.attempts + 1} attempts",
                )
            breaker = self._breaker(message.recipient)
            if breaker is not None:
                breaker.record_failure(self._now())
            if self.on_give_up is not None:
                self.on_give_up(message)
            return
        pending.attempts += 1
        self.retransmissions += 1
        self._count(
            "network_retransmissions_total",
            "Timeout-triggered message resends.",
        )
        self.is_retransmitting = True
        try:
            self.node.send(pending.message)
        finally:
            self.is_retransmitting = False
        self._arm_timeout(seq)

    def handle_ack(self, ack: Ack) -> bool:
        """Resolve a pending message; returns False for stale acks."""
        pending = self._pending.pop(ack.acked_seq, None)
        if pending is None:
            return False
        breaker = self._breaker(ack.sender)
        if breaker is not None:
            breaker.record_success(self._now())
        if self.telemetry is not None:
            from repro.telemetry.core import ACK_LATENCY_BUCKETS

            self.telemetry.registry.histogram(
                "network_ack_latency_seconds",
                "Simulated seconds from first transmission to ack.",
                labels=("node",),
                buckets=ACK_LATENCY_BUCKETS,
            ).observe(
                self._now() - pending.first_sent_at,
                node=self.node.node_id,
            )
        return True

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def accept(self, message: Message) -> bool:
        """Ack and deduplicate an incoming message.

        Returns True when the node should process the message, False
        for suppressed duplicates.  Unsequenced messages pass through
        without an ack.
        """
        if message.seq == UNSEQUENCED:
            return True
        self.node.send(
            Ack(
                sender=self.node.node_id,
                recipient=message.sender,
                acked_seq=message.seq,
                acked_kind=message.kind,
            )
        )
        self.acks_sent += 1
        seen = self._seen.setdefault(message.sender, set())
        if message.seq in seen:
            self.duplicates_dropped += 1
            self._count(
                "network_duplicates_total",
                "Received duplicates suppressed by sequence tracking.",
            )
            return False
        seen.add(message.seq)
        return True
