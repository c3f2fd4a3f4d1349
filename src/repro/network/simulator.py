"""Discrete-event simulator for the sensor network.

A minimal priority-queue event loop: callbacks are scheduled at
absolute times and executed in order; message delivery between nodes
is an event whose delay comes from the link's transfer time.  Nodes
register by id; delivery charges the sender's transmission energy.

Failure semantics (all opt-in; a simulator with no attached
:class:`~repro.faults.injector.FaultInjector`, no severed links and no
down nodes behaves exactly like the fault-free original):

* a *down* node neither transmits (radio off, no energy spent) nor
  receives — in-flight messages addressed to it are dropped on
  arrival;
* a *severed* link (:meth:`disconnect`) still lets the sender key up
  its radio — transmission energy is charged — but the message never
  arrives;
* an attached fault injector may drop or delay any transmission
  (lossy links, latency spikes).

Every undelivered message increments :attr:`dropped_messages`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable

from repro.network.link import WirelessLink
from repro.network.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.telemetry.core import Telemetry


class EventSimulator:
    """Priority-queue discrete-event loop with message routing."""

    def __init__(self, telemetry: "Telemetry | None" = None) -> None:
        # (time, seq, callback) heap entries: ``seq`` is unique, so
        # ties on time run in schedule order and tuple comparison
        # never reaches the (unorderable) callbacks.
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._nodes: dict[str, "Node"] = {}
        self._links: dict[tuple[str, str], WirelessLink] = {}
        self._severed: dict[tuple[str, str], WirelessLink] = {}
        self._down_nodes: set[str] = set()
        self.fault_injector: "FaultInjector | None" = None
        self.telemetry = telemetry
        self.delivered_messages = 0
        self.dropped_messages = 0
        self.transferred_bytes = 0
        # Instruments resolved once per simulator (per-send registry
        # lookups would dominate the telemetry cost).
        if telemetry is not None:
            from repro.telemetry.core import ACK_LATENCY_BUCKETS

            registry = telemetry.registry
            self._m_dropped = registry.counter(
                "network_messages_dropped_total",
                "Messages that never reached their recipient, by cause.",
                labels=("reason",),
            )
            self._m_sent = registry.counter(
                "network_messages_sent_total",
                "Messages keyed onto the radio, by message kind.",
                labels=("kind",),
            )
            self._m_bytes = registry.counter(
                "network_bytes_sent_total", "Payload bytes transmitted."
            )
            self._m_delivered = registry.counter(
                "network_messages_delivered_total",
                "Messages handed to their recipient, by message kind.",
                labels=("kind",),
            )
            self._m_latency = registry.histogram(
                "network_delivery_latency_seconds",
                "Link transfer time plus injected latency per delivery.",
                buckets=ACK_LATENCY_BUCKETS,
            )

    # ------------------------------------------------------------------
    # Telemetry (no-ops when no Telemetry is attached)
    # ------------------------------------------------------------------
    def _count_drop(self, reason: str) -> None:
        self.dropped_messages += 1
        if self.telemetry is not None:
            self._m_dropped.inc(reason=reason)

    def _count_send(self, message: Message, size: int) -> None:
        if self.telemetry is None:
            return
        self._m_sent.inc(kind=message.kind)
        self._m_bytes.inc(size)

    def _count_delivery(self, message: Message, latency_s: float) -> None:
        if self.telemetry is None:
            return
        self._m_delivered.inc(kind=message.kind)
        self._m_latency.observe(latency_s)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register_node(self, node: "Node") -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id!r} already registered")
        self._nodes[node.node_id] = node
        node.simulator = self

    def connect(
        self,
        node_a: str,
        node_b: str,
        link: WirelessLink | None = None,
        replace: bool = False,
    ) -> None:
        """Create a bidirectional link between two registered nodes.

        Connecting an already-linked pair raises unless ``replace=True``
        — silently swapping a link mid-run would invalidate in-flight
        transfer times without anyone noticing.
        """
        for node_id in (node_a, node_b):
            if node_id not in self._nodes:
                raise KeyError(f"node {node_id!r} not registered")
        pair = (node_a, node_b)
        if not replace and (
            pair in self._links or pair[::-1] in self._links
        ):
            raise ValueError(
                f"nodes {node_a!r} and {node_b!r} are already linked; "
                "pass replace=True to swap the link explicitly"
            )
        link = link or WirelessLink()
        self._links[pair] = link
        self._links[pair[::-1]] = link
        self._severed.pop(pair, None)
        self._severed.pop(pair[::-1], None)

    def disconnect(self, node_a: str, node_b: str) -> None:
        """Sever the link between two nodes (partition injection).

        The link object is remembered so sends into the partition can
        still be charged radio energy and :meth:`reconnect` can restore
        the exact same link parameters.
        """
        pair = (node_a, node_b)
        link = self._links.pop(pair, None) or self._links.pop(
            pair[::-1], None
        )
        self._links.pop(pair, None)
        self._links.pop(pair[::-1], None)
        if link is None:
            raise KeyError(f"no link between {node_a!r} and {node_b!r}")
        self._severed[pair] = link
        self._severed[pair[::-1]] = link

    def reconnect(self, node_a: str, node_b: str) -> None:
        """Restore a previously severed link."""
        pair = (node_a, node_b)
        link = self._severed.get(pair)
        if link is None:
            raise KeyError(
                f"no severed link between {node_a!r} and {node_b!r}"
            )
        self.connect(node_a, node_b, link, replace=True)

    def node(self, node_id: str) -> "Node":
        return self._nodes[node_id]

    # ------------------------------------------------------------------
    # Node liveness
    # ------------------------------------------------------------------
    def set_node_down(self, node_id: str) -> None:
        """Mark a node crashed: it stops sending and receiving."""
        if node_id not in self._nodes:
            raise KeyError(f"node {node_id!r} not registered")
        self._down_nodes.add(node_id)

    def set_node_up(self, node_id: str) -> None:
        """Bring a crashed node back."""
        if node_id not in self._nodes:
            raise KeyError(f"node {node_id!r} not registered")
        self._down_nodes.discard(node_id)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), callback)
        )

    def send(self, message: Message) -> None:
        """Deliver a message over the connecting link.

        Charges the sender's radio energy immediately and schedules
        the recipient's ``receive`` after the transfer time.  The
        message is silently dropped (and counted) when the sender is
        down, the link is severed, the fault injector rules a loss, or
        the recipient is down at arrival time.
        """
        pair = (message.sender, message.recipient)
        severed = False
        link = self._links.get(pair)
        if link is None:
            link = self._severed.get(pair)
            severed = link is not None
        if link is None:
            raise KeyError(
                f"no link between {message.sender!r} and "
                f"{message.recipient!r}"
            )
        if message.sender in self._down_nodes:
            # A crashed node's radio is off: nothing leaves the antenna
            # and no transmission energy is spent.
            self._count_drop("sender_down")
            return
        sender = self._nodes[message.sender]
        recipient = self._nodes[message.recipient]
        size = message.size_bytes
        sender.on_transmit(size, link.transfer_energy(size))
        self.transferred_bytes += size
        self._count_send(message, size)

        extra_latency = 0.0
        loss = False
        corrupt = False
        if self.fault_injector is not None:
            verdict = self.fault_injector.on_send(message)
            loss = verdict.drop
            extra_latency = verdict.extra_latency_s
            corrupt = verdict.corrupt
        if severed or loss:
            self._count_drop("link_severed" if severed else "link_loss")
            return

        latency = link.transfer_time(size) + extra_latency

        def deliver(corrupt: bool = corrupt) -> None:
            if message.recipient in self._down_nodes:
                self._count_drop("recipient_down")
                return
            self.delivered_messages += 1
            self._count_delivery(message, latency)
            # The verdict is captured per delivery: a retransmission of
            # the same payload gets its own fresh ruling.
            message.corrupted = corrupt
            recipient.receive(message)

        self.schedule(latency, deliver)

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> int:
        """Drain the event queue; returns the number of events run."""
        executed = 0
        queue = self._queue
        while queue and executed < max_events:
            if until is not None and queue[0][0] > until:
                break
            time, _, callback = heapq.heappop(queue)
            if time > self._now:
                self._now = time
            callback()
            executed += 1
        return executed


class Node:
    """Base network node; subclasses implement ``receive``."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.simulator: EventSimulator | None = None

    def send(self, message: Message) -> None:
        if self.simulator is None:
            raise RuntimeError(
                f"node {self.node_id!r} is not attached to a simulator"
            )
        self.simulator.send(message)

    def on_transmit(self, num_bytes: int, energy_joules: float) -> None:
        """Hook: sender-side accounting (default no-op)."""

    def receive(self, message: Message) -> None:  # pragma: no cover - abstract
        raise NotImplementedError
