"""Declarative, seeded fault schedules.

A :class:`FaultPlan` is a pure description — *which* links lose
packets, *when* nodes crash or batteries die — with no behaviour of
its own; the :class:`~repro.faults.injector.FaultInjector` compiles it
onto an :class:`~repro.network.simulator.EventSimulator`.  Plans are
frozen, JSON round-trippable (the CLI's ``--fault-plan`` flag loads
one from disk) and carry their own seed, so a chaos run is fully
reproducible from the plan file alone.

The wildcard node id ``"*"`` in a :class:`LinkFault` matches any
endpoint, which is how a uniform loss rate across every link is
written.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

from repro.ioutils import atomic_write_json

#: Matches any node id in a LinkFault endpoint.
WILDCARD = "*"


def _window_active(start_s: float, end_s: float, time_s: float) -> bool:
    return start_s <= time_s < end_s


def _pair_matches(
    node_a: str, node_b: str, sender: str, recipient: str
) -> bool:
    pair = {node_a, node_b}
    if WILDCARD in pair:
        named = pair - {WILDCARD}
        return not named or bool(named & {sender, recipient})
    return pair == {sender, recipient}


@dataclass(frozen=True)
class LinkFault:
    """Degrade a link: random loss and/or a latency spike.

    Active on transmissions whose (sender, recipient) pair matches
    ``node_a``/``node_b`` in either direction and whose send time lies
    in ``[start_s, end_s)``.
    """

    node_a: str = WILDCARD
    node_b: str = WILDCARD
    loss_rate: float = 0.0
    extra_latency_s: float = 0.0
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if self.extra_latency_s < 0:
            raise ValueError("extra_latency_s cannot be negative")
        if self.end_s < self.start_s:
            raise ValueError("end_s must be >= start_s")

    def matches(self, sender: str, recipient: str, time_s: float) -> bool:
        if not self.start_s <= time_s < self.end_s:
            return False
        pair = {self.node_a, self.node_b}
        if WILDCARD in pair:
            named = pair - {WILDCARD}
            return not named or bool(named & {sender, recipient})
        return pair == {sender, recipient}


@dataclass(frozen=True)
class Partition:
    """Sever a link completely for a time window."""

    node_a: str
    node_b: str
    start_s: float
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError("partition must have positive duration")


@dataclass(frozen=True)
class Crash:
    """Take a node down at ``at_s``; optionally reboot it later."""

    node_id: str
    at_s: float
    reboot_s: float | None = None

    def __post_init__(self) -> None:
        if self.reboot_s is not None and self.reboot_s <= self.at_s:
            raise ValueError("reboot_s must be after at_s")


@dataclass(frozen=True)
class BatteryFault:
    """Drain a fraction of a node's residual battery at ``at_s``.

    ``fraction=1.0`` is premature exhaustion: the node keeps running
    its CPU-free logic but can no longer process or transmit.
    """

    node_id: str
    at_s: float
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")


@dataclass(frozen=True)
class SensorFault:
    """Degrade a camera's *data plane* for a time window.

    Unlike a :class:`Crash` the node stays up, keeps heartbeating and
    keeps paying processing energy — it just produces bad detections:

    * ``noise`` — each true detection is independently suppressed with
      this probability (a corrupted frame misses real objects);
    * ``false_positive_rate`` — expected count of fabricated
      high-confidence junk detections injected per processed frame;
    * ``stuck`` — the sensor freezes on its last healthy frame and
      replays that frame's detections every tick.
    """

    node_id: str
    start_s: float = 0.0
    end_s: float = math.inf
    noise: float = 0.0
    false_positive_rate: float = 0.0
    stuck: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        if self.false_positive_rate < 0:
            raise ValueError("false_positive_rate cannot be negative")
        if self.end_s <= self.start_s:
            raise ValueError("sensor fault must have positive duration")
        if not (self.noise or self.false_positive_rate or self.stuck):
            raise ValueError(
                "sensor fault has no effect: set noise, "
                "false_positive_rate and/or stuck"
            )

    def active(self, node_id: str, time_s: float) -> bool:
        return self.node_id == node_id and _window_active(
            self.start_s, self.end_s, time_s
        )


@dataclass(frozen=True)
class CalibrationDrift:
    """Gradual score/extrinsics skew accruing over a time window.

    ``score_drift_per_s`` shifts every detection score by
    ``rate * (t - start_s)`` Joule-free; negative rates sink real
    detections below their threshold (missed objects), positive rates
    inflate the camera's apparent confidence.  ``position_drift_per_s``
    skews the reported bounding boxes horizontally (pixels per second),
    modelling extrinsics creep that breaks cross-camera grouping.
    """

    node_id: str
    start_s: float = 0.0
    end_s: float = math.inf
    score_drift_per_s: float = 0.0
    position_drift_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError("drift must have positive duration")
        if not (self.score_drift_per_s or self.position_drift_per_s):
            raise ValueError(
                "drift has no effect: set score_drift_per_s and/or "
                "position_drift_per_s"
            )

    def active(self, node_id: str, time_s: float) -> bool:
        return self.node_id == node_id and _window_active(
            self.start_s, self.end_s, time_s
        )

    def score_offset(self, time_s: float) -> float:
        return self.score_drift_per_s * (time_s - self.start_s)

    def position_offset(self, time_s: float) -> float:
        return self.position_drift_per_s * (time_s - self.start_s)


@dataclass(frozen=True)
class ClockSkew:
    """A node's local clock runs at the wrong rate for a window.

    ``skew`` is the fractional rate error: ``0.5`` stretches every
    locally scheduled interval (heartbeats, operational ticks) by
    1.5x, so the node beacons late and falls behind the frame stream.
    """

    node_id: str
    skew: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.skew <= -0.9:
            raise ValueError("skew must be > -0.9 (clock cannot stop)")
        if self.skew == 0.0:
            raise ValueError("skew of 0 has no effect")
        if self.end_s <= self.start_s:
            raise ValueError("clock skew must have positive duration")

    def active(self, node_id: str, time_s: float) -> bool:
        return self.node_id == node_id and _window_active(
            self.start_s, self.end_s, time_s
        )


@dataclass(frozen=True)
class MessageCorruption:
    """Garble a fraction of matching transmissions in a window.

    A corrupted message still consumes radio energy and arrives, but
    its payload fails the receiver's integrity check: the receiver
    discards it without acking, so reliable senders retransmit exactly
    as they would after a loss — the difference is that the *receiver*
    observes the corruption, which is what health scoring feeds on.
    """

    node_a: str = WILDCARD
    node_b: str = WILDCARD
    rate: float = 0.0
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if self.end_s <= self.start_s:
            raise ValueError("corruption must have positive duration")

    def matches(self, sender: str, recipient: str, time_s: float) -> bool:
        if not _window_active(self.start_s, self.end_s, time_s):
            return False
        return _pair_matches(self.node_a, self.node_b, sender, recipient)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded chaos schedule."""

    seed: int = 0
    link_faults: tuple[LinkFault, ...] = ()
    partitions: tuple[Partition, ...] = ()
    crashes: tuple[Crash, ...] = ()
    battery_faults: tuple[BatteryFault, ...] = ()
    sensor_faults: tuple[SensorFault, ...] = ()
    calibration_drifts: tuple[CalibrationDrift, ...] = ()
    clock_skews: tuple[ClockSkew, ...] = ()
    message_corruptions: tuple[MessageCorruption, ...] = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def uniform_loss(cls, loss_rate: float, seed: int = 0) -> "FaultPlan":
        """Every link drops packets independently at ``loss_rate``."""
        if loss_rate <= 0.0:
            return cls(seed=seed)
        return cls(seed=seed, link_faults=(LinkFault(loss_rate=loss_rate),))

    def with_crashes(self, *crashes: Crash) -> "FaultPlan":
        return replace(self, crashes=self.crashes + tuple(crashes))

    def with_data_faults(
        self,
        *faults: "SensorFault | CalibrationDrift | ClockSkew | MessageCorruption",
    ) -> "FaultPlan":
        """A copy with data-plane faults appended, dispatched by type."""
        buckets: dict[str, list] = {
            "sensor_faults": [],
            "calibration_drifts": [],
            "clock_skews": [],
            "message_corruptions": [],
        }
        by_type = {
            SensorFault: "sensor_faults",
            CalibrationDrift: "calibration_drifts",
            ClockSkew: "clock_skews",
            MessageCorruption: "message_corruptions",
        }
        for fault in faults:
            key = by_type.get(type(fault))
            if key is None:
                raise TypeError(
                    f"with_data_faults accepts "
                    f"{sorted(t.__name__ for t in by_type)}, "
                    f"got {type(fault).__name__}"
                )
            buckets[key].append(fault)
        return replace(
            self,
            **{
                key: getattr(self, key) + tuple(extra)
                for key, extra in buckets.items()
                if extra
            },
        )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        def scrub(items):
            out = []
            for item in items:
                d = asdict(item)
                for key, value in list(d.items()):
                    if value == math.inf:
                        d[key] = None
                out.append(d)
            return out

        return {"seed": self.seed} | {
            key: scrub(getattr(self, key)) for key in _FAULT_KINDS
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Revive a plan, rejecting anything it does not understand.

        A fault plan is an executable promise — silently dropping an
        unknown fault kind or a misspelled field would run a *different*
        chaos schedule than the one on disk.  Malformed input raises
        :class:`ValueError` naming the offending kind/field, which is
        also what a plan written by a future schema version hits.
        """
        if not isinstance(data, dict):
            raise ValueError(
                "fault plan must be a JSON object, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_FAULT_KINDS) - {"seed"})
        if unknown:
            raise ValueError(
                f"unknown fault plan field(s) {unknown}; known kinds: "
                f"{sorted(_FAULT_KINDS)} (plus 'seed')"
            )
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(
                f"fault plan field 'seed' must be an integer, got "
                f"{seed!r}"
            )

        def revive(kind: str) -> tuple:
            klass, inf_keys = _FAULT_KINDS[kind]
            items = data.get(kind)
            if items is None:
                return ()
            if not isinstance(items, list):
                raise ValueError(
                    f"fault plan field {kind!r} must be a list, got "
                    f"{type(items).__name__}"
                )
            known = {f.name for f in dataclass_fields(klass)}
            required = {
                f.name
                for f in dataclass_fields(klass)
                if f.default is MISSING and f.default_factory is MISSING
            }
            out = []
            for index, item in enumerate(items):
                where = f"{kind}[{index}]"
                if not isinstance(item, dict):
                    raise ValueError(
                        f"{where} must be an object, got "
                        f"{type(item).__name__}"
                    )
                item = dict(item)
                for key in inf_keys:
                    if item.get(key) is None:
                        item.pop(key, None)
                extra = sorted(set(item) - known)
                if extra:
                    raise ValueError(
                        f"{where}: unexpected field(s) {extra} for "
                        f"{klass.__name__}; known fields: {sorted(known)}"
                    )
                missing = sorted(required - set(item))
                if missing:
                    raise ValueError(
                        f"{where}: missing required field(s) {missing} "
                        f"for {klass.__name__}"
                    )
                try:
                    out.append(klass(**item))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{where}: {exc}") from exc
            return tuple(out)

        return cls(
            seed=seed, **{kind: revive(kind) for kind in _FAULT_KINDS}
        )

    def save(self, path: str | Path) -> None:
        atomic_write_json(Path(path), self.to_dict(), indent=2)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Load and validate a plan file; malformed input (truncated
        JSON, unknown kinds, bad fields) raises :class:`ValueError`."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"fault plan {path} is not valid JSON "
                f"(truncated or corrupt?): {exc}"
            ) from exc
        return cls.from_dict(data)


#: plan field -> (fault dataclass, keys where JSON null means +inf).
_FAULT_KINDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "link_faults": (LinkFault, ("end_s",)),
    "partitions": (Partition, ("end_s",)),
    "crashes": (Crash, ()),
    "battery_faults": (BatteryFault, ()),
    "sensor_faults": (SensorFault, ("end_s",)),
    "calibration_drifts": (CalibrationDrift, ("end_s",)),
    "clock_skews": (ClockSkew, ("end_s",)),
    "message_corruptions": (MessageCorruption, ("end_s",)),
}
