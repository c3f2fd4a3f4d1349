"""Prometheus-style metric instruments and their registry.

Three instrument types cover everything the deployment loop needs to
report: :class:`Counter` (monotone totals — Joules drawn, messages
sent), :class:`Gauge` (point-in-time values — battery fraction,
cameras selected) and :class:`Histogram` (fixed-bucket distributions —
detection scores, ack latencies).  Every instrument supports labels,
so one metric name fans out into one *series* per label combination,
exactly like the Prometheus data model.

The registry is deliberately cheap — recording a sample is a dict
lookup plus a float add — so instrumentation can stay always-on in
the hot loops.  :meth:`MetricsRegistry.snapshot` produces a plain
JSON-able payload that round-trips losslessly through
:meth:`MetricsRegistry.merge`, which is how per-run dumps from
parallel or sharded deployments fold into one fleet-wide view.
:meth:`MetricsRegistry.to_json` is the same payload as compact JSON,
encoded incrementally: recording stays untouched, and each encode
re-renders only the series whose value changed since the last one, so
a per-tick stream flush pays for what moved, not for every series.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping

METRICS_SCHEMA = "repro.metrics.v1"

#: Default histogram bucket upper bounds (seconds-ish scale); callers
#: with domain knowledge should pass their own.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


#: How ``json.dumps`` spells the floats whose repr is not JSON.
_NONFINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number_json(value: object) -> str:
    """``json.dumps(value)`` of one series number, minus the encoder
    set-up: floats (subclasses too) render through ``float.__repr__``,
    exactly as the C encoder renders them."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE_JSON.get(text, text)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _renders_as(value: object, rendered: object) -> bool:
    """Whether ``value`` encodes exactly as ``rendered`` did: the same
    object, or an equal non-zero value of the same type (equal values
    can still print differently: 0.0 and -0.0, 1 and 1.0)."""
    return value is rendered or (
        value == rendered and bool(value) and type(value) is type(rendered)
    )


class MetricError(ValueError):
    """Misuse of an instrument (bad labels, type clash, negative inc)."""


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, object]
) -> tuple[str, ...]:
    # Hot path: a KeyError probe plus a length check detects every
    # mismatch without building throwaway sets per sample.
    try:
        key = tuple(str(labels[name]) for name in label_names)
    except KeyError:
        raise MetricError(
            f"expected labels {sorted(label_names)}, "
            f"got {sorted(labels)}"
        ) from None
    if len(labels) != len(label_names):
        raise MetricError(
            f"expected labels {sorted(label_names)}, "
            f"got {sorted(labels)}"
        )
    return key


@dataclass
class _HistogramSeries:
    """Cumulative state of one labelled histogram series."""

    bucket_counts: list[int]
    count: int = 0
    sum: float = 0.0


class _Instrument:
    """Shared name/help/label plumbing of all instrument types."""

    type: str = ""

    def __init__(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> None:
        if not name or not name.replace("_", "a").isidentifier():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        # Compact-encoding cache (see MetricsRegistry.to_json): the
        # entry's constant head and tail, the sorted series keys, and
        # per series the state its fragment was rendered from.
        self._json_frame: tuple[str, str] | None = None
        self._json_keys: list[tuple[str, ...]] = []
        self._fragments: dict[tuple[str, ...], tuple] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        # Unrolled for the 0/1/2-label shapes every hot-loop metric in
        # this codebase uses; the generic path handles the rest.
        names = self.label_names
        try:
            if len(labels) == len(names):
                if not names:
                    return ()
                if len(names) == 1:
                    return (str(labels[names[0]]),)
                if len(names) == 2:
                    return (str(labels[names[0]]), str(labels[names[1]]))
        except KeyError:
            pass
        return _label_key(names, labels)

    def _labels_json(self, key: tuple[str, ...]) -> str:
        return json.dumps(dict(zip(self.label_names, key)), sort_keys=True)

    def _entry_fields(self) -> dict:
        """The snapshot entry's fields that sort before ``series``."""
        return {
            "help": self.help,
            "labels": list(self.label_names),
            "name": self.name,
        }

    def _json(self) -> str:
        """``json.dumps(entry, sort_keys=True)`` of this instrument's
        snapshot entry, re-rendering only the series that changed."""
        if self._json_frame is None:
            head = json.dumps(self._entry_fields(), sort_keys=True)
            self._json_frame = (
                head[:-1] + ', "series": [',
                '], "type": ' + json.dumps(self.type) + "}",
            )
        head, tail = self._json_frame
        return "".join((head, ", ".join(self._series_json()), tail))

    def _sorted_keys(self, series: dict) -> list[tuple[str, ...]]:
        # Series are never removed, so a new key changes the length.
        if len(series) != len(self._json_keys):
            self._json_keys = sorted(series)
        return self._json_keys


class _ScalarInstrument(_Instrument):
    """One float per label set: the shared body of counters and gauges."""

    def __init__(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> None:
        super().__init__(name, help, labels)
        self._values: dict[tuple[str, ...], float] = {}

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    @property
    def series_count(self) -> int:
        return len(self._values)

    def _series_json(self) -> list[str]:
        """Each series' fragment, in key order; a fragment is re-rendered
        only when its value changed since it was rendered."""
        values = self._values
        fragments = self._fragments
        parts = []
        for key in self._sorted_keys(values):
            value = values[key]
            cached = fragments.get(key)
            if cached is not None:
                old, labels, text = cached
                if value is old or _renders_as(value, old):
                    parts.append(text)
                    continue
            else:
                labels = self._labels_json(key)
            text = (
                '{"labels": ' + labels + ', "value": '
                + _number_json(value) + "}"
            )
            fragments[key] = (value, labels, text)
            parts.append(text)
        return parts


class Counter(_ScalarInstrument):
    """A monotonically increasing total, one value per label set."""

    type = COUNTER

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_ScalarInstrument):
    """A value that can go up and down, one per label set."""

    type = GAUGE

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram(_Instrument):
    """Fixed-bucket distribution with per-label-set series.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the overflow, so ``observe`` never loses a sample.
    """

    type = HISTOGRAM

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b >= c for b, c in zip(bounds, bounds[1:])
        ):
            raise MetricError("buckets must be strictly increasing")
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(
                bucket_counts=[0] * (len(self.buckets) + 1)
            )
            self._series[key] = series
        # First bucket whose bound is >= value; past-the-end lands in
        # the implicit +Inf slot.
        idx = bisect_left(self.buckets, value)
        series.bucket_counts[idx] += 1
        series.count += 1
        series.sum += value

    def count(self, **labels: object) -> int:
        series = self._series.get(self._key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(self._key(labels))
        return series.sum if series else 0.0

    @property
    def series_count(self) -> int:
        return len(self._series)

    def _entry_fields(self) -> dict:
        return dict(super()._entry_fields(), buckets=list(self.buckets))

    def _series_json(self) -> list[str]:
        """Each series' fragment, in key order; a fragment is re-rendered
        only when an observation or merge touched the series."""
        fragments = self._fragments
        parts = []
        for key in self._sorted_keys(self._series):
            series = self._series[key]
            cached = fragments.get(key)
            if cached is not None:
                count, total, buckets, labels, text = cached
                if (
                    _renders_as(series.count, count)
                    and _renders_as(series.sum, total)
                    and series.bucket_counts == buckets
                ):
                    parts.append(text)
                    continue
            else:
                labels = self._labels_json(key)
            # Bucket counts are exact ints (merge checks), so the list
            # repr is their JSON.
            text = (
                '{"bucket_counts": ' + repr(series.bucket_counts)
                + ', "count": ' + _number_json(series.count)
                + ', "labels": ' + labels
                + ', "sum": ' + _number_json(series.sum) + "}"
            )
            fragments[key] = (
                series.count,
                series.sum,
                list(series.bucket_counts),
                labels,
                text,
            )
            parts.append(text)
        return parts


class MetricsRegistry:
    """Get-or-create home for every instrument of one process/run.

    Calling :meth:`counter`/:meth:`gauge`/:meth:`histogram` twice with
    the same name returns the same instrument; a type or label-schema
    clash raises instead of silently splitting a metric in two.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._json_names: list[str] = []

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def _get_or_create(
        self, cls, name: str, help: str, labels: Iterable[str], **kwargs
    ):
        labels = tuple(labels)
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.type}, not {cls.type}"
                )
            if existing.label_names != labels:
                raise MetricError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.label_names}, not {labels}"
                )
            return existing
        instrument = cls(name, help, labels, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        instrument = self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )
        if instrument.buckets != tuple(float(b) for b in buckets):
            raise MetricError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.buckets}"
            )
        return instrument

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    @property
    def names(self) -> list[str]:
        return sorted(self._instruments)

    def series_count(self) -> int:
        """Total number of labelled series across all instruments."""
        return sum(i.series_count for i in self._instruments.values())

    # ------------------------------------------------------------------
    # Snapshot / merge / exposition
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain JSON-able copy of every instrument and series."""
        metrics = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            entry: dict = {
                "name": inst.name,
                "type": inst.type,
                "help": inst.help,
                "labels": list(inst.label_names),
            }
            if isinstance(inst, Histogram):
                entry["buckets"] = list(inst.buckets)
                entry["series"] = [
                    {
                        "labels": dict(zip(inst.label_names, key)),
                        "bucket_counts": list(series.bucket_counts),
                        "count": series.count,
                        "sum": series.sum,
                    }
                    for key, series in sorted(inst._series.items())
                ]
            else:
                entry["series"] = [
                    {
                        "labels": dict(zip(inst.label_names, key)),
                        "value": value,
                    }
                    for key, value in sorted(inst._values.items())
                ]
            metrics.append(entry)
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` payload into this registry.

        Counters and histograms add; gauges take the snapshot's value
        (last writer wins), which matches their point-in-time meaning.
        """
        for entry in snapshot.get("metrics", ()):
            name = entry["name"]
            kind = entry["type"]
            labels = tuple(entry.get("labels", ()))
            if kind == COUNTER:
                counter = self.counter(name, entry.get("help", ""), labels)
                for series in entry["series"]:
                    counter.inc(series["value"], **series["labels"])
            elif kind == GAUGE:
                gauge = self.gauge(name, entry.get("help", ""), labels)
                for series in entry["series"]:
                    gauge.set(series["value"], **series["labels"])
            elif kind == HISTOGRAM:
                hist = self.histogram(
                    name, entry.get("help", ""), labels,
                    buckets=entry["buckets"],
                )
                for series in entry["series"]:
                    key = _label_key(hist.label_names, series["labels"])
                    mine = hist._series.get(key)
                    if mine is None:
                        mine = _HistogramSeries(
                            bucket_counts=[0] * (len(hist.buckets) + 1)
                        )
                        hist._series[key] = mine
                    counts = series["bucket_counts"]
                    if len(counts) != len(mine.bucket_counts):
                        raise MetricError(
                            f"histogram {name!r}: bucket count mismatch"
                        )
                    if any(type(c) is not int for c in counts):
                        raise MetricError(
                            f"histogram {name!r}: bucket counts must be "
                            f"integers, got {counts!r}"
                        )
                    for i, c in enumerate(counts):
                        mine.bucket_counts[i] += c
                    mine.count += series["count"]
                    mine.sum += series["sum"]
            else:
                raise MetricError(f"unknown instrument type {kind!r}")

    def to_json(self) -> str:
        """``json.dumps(self.snapshot(), sort_keys=True)``, built from
        cached pieces instead of a fresh snapshot.

        Every instrument keeps its entry's constant head and tail, its
        sorted series keys (re-sorted only when a series is added) and
        each series' last rendered fragment, reused while the series'
        value is unchanged.  A stream flush therefore re-encodes only
        the series that moved since the previous flush.
        """
        instruments = self._instruments
        # Instruments are never removed either.
        if len(instruments) != len(self._json_names):
            self._json_names = sorted(instruments)
        return "".join((
            '{"metrics": [',
            ", ".join([instruments[n]._json() for n in self._json_names]),
            '], "schema": ' + json.dumps(METRICS_SCHEMA) + "}",
        ))

    def render_text(self) -> str:
        """Prometheus text exposition format."""

        def fmt_labels(labels: Mapping[str, str], extra: str = "") -> str:
            parts = [f'{k}="{v}"' for k, v in labels.items()]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        lines: list[str] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            lines.append(f"# TYPE {inst.name} {inst.type}")
            if isinstance(inst, Histogram):
                for key, series in sorted(inst._series.items()):
                    labels = dict(zip(inst.label_names, key))
                    cumulative = 0
                    for bound, count in zip(
                        inst.buckets, series.bucket_counts
                    ):
                        cumulative += count
                        le = 'le="%g"' % bound
                        lines.append(
                            f"{inst.name}_bucket"
                            f"{fmt_labels(labels, le)} {cumulative}"
                        )
                    inf = 'le="+Inf"'
                    lines.append(
                        f"{inst.name}_bucket"
                        f"{fmt_labels(labels, inf)} {series.count}"
                    )
                    lines.append(
                        f"{inst.name}_sum{fmt_labels(labels)} "
                        f"{series.sum:g}"
                    )
                    lines.append(
                        f"{inst.name}_count{fmt_labels(labels)} "
                        f"{series.count}"
                    )
            else:
                for key, value in sorted(inst._values.items()):
                    labels = dict(zip(inst.label_names, key))
                    lines.append(
                        f"{inst.name}{fmt_labels(labels)} {value:g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
