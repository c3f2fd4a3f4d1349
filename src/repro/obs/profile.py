"""Span-tree profiler: fold a trace into flamegraph-style aggregates.

A ``repro.span.v1`` trace is one line per closed span with a
``parent_id`` link — a tree like ``run → round → assessment →
detection``.  Reading it raw answers "what happened when"; this module
answers "where did the time go":

* :func:`fold_spans` aggregates spans by *path* (the chain of names
  from the root, ``run;round;detection``), the same grouping a
  flamegraph uses.  Each path gets its call count, **total** time
  (sum of span durations) and **self** time (total minus time spent
  in child spans) — self time is what pinpoints the hot layer when a
  parent merely waits on its children.
* :func:`critical_paths` walks each ``round`` span down its heaviest
  child at every level, yielding the chain that bounds the round's
  wall clock — the first place to look when rounds slow down.
* :func:`render_folded` emits classic collapsed-stack lines
  (``run;round;detection 123456``, self time in microseconds), which
  external flamegraph tooling consumes directly.
* :func:`fold_by_name` merges every path ending in the same span name
  — the per-phase view ``python -m repro run --perf-report`` prints.

Exposed as ``python -m repro obs profile <trace.jsonl>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.trace import SPAN_SCHEMA

PATH_SEPARATOR = ";"


def load_spans(path: str | Path) -> list[dict]:
    """Read a span-trace JSONL file, skipping blank lines.

    Records claiming a schema other than ``repro.span.v1`` raise: a
    stream or event file passed by mistake should fail loudly, not
    produce an empty profile.
    """
    records: list[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        schema = record.get("schema", SPAN_SCHEMA)
        if schema != SPAN_SCHEMA:
            raise ValueError(
                f"{path}:{lineno}: expected a {SPAN_SCHEMA} trace, "
                f"got schema {schema!r}"
            )
        records.append(record)
    return records


@dataclass
class ProfileEntry:
    """Aggregated timing of one span path across the whole trace."""

    path: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


def _paths_and_children(
    records: list[dict],
) -> tuple[dict[int, str], dict[int, list[dict]]]:
    """Resolve each span's root path and group children by parent."""
    by_id = {record["span_id"]: record for record in records}
    children: dict[int, list[dict]] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append(record)
    paths: dict[int, str] = {}

    def path_of(span_id: int) -> str:
        cached = paths.get(span_id)
        if cached is not None:
            return cached
        record = by_id[span_id]
        parent = record.get("parent_id")
        if parent is None or parent not in by_id:
            resolved = record["name"]
        else:
            resolved = path_of(parent) + PATH_SEPARATOR + record["name"]
        paths[span_id] = resolved
        return resolved

    for record in records:
        path_of(record["span_id"])
    return paths, children


def fold_spans(records: list[dict]) -> list[ProfileEntry]:
    """Aggregate spans by path; sorted by self time, heaviest first.

    Self time is a span's duration minus its direct children's
    durations, clamped at zero (children recorded under a parent that
    closed early — the tracer's ``finish()`` cleanup — cannot push a
    parent negative).
    """
    paths, children = _paths_and_children(records)
    entries: dict[str, ProfileEntry] = {}
    for record in records:
        path = paths[record["span_id"]]
        duration = float(record.get("duration_s", 0.0))
        child_time = sum(
            float(child.get("duration_s", 0.0))
            for child in children.get(record["span_id"], ())
        )
        entry = entries.setdefault(path, ProfileEntry(path=path))
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += max(0.0, duration - child_time)
    return sorted(
        entries.values(), key=lambda e: (-e.self_s, e.path)
    )


def fold_by_name(records: list[dict]) -> list[ProfileEntry]:
    """Aggregate spans by name alone, wherever they sit in the tree;
    sorted by self time, heaviest first."""
    merged: dict[str, ProfileEntry] = {}
    for entry in fold_spans(records):
        name = entry.path.rsplit(PATH_SEPARATOR, 1)[-1]
        into = merged.setdefault(name, ProfileEntry(path=name))
        into.calls += entry.calls
        into.total_s += entry.total_s
        into.self_s += entry.self_s
    return sorted(merged.values(), key=lambda e: (-e.self_s, e.path))


@dataclass
class CriticalPath:
    """The heaviest root-to-leaf chain under one round span."""

    round_index: object
    duration_s: float
    steps: list[tuple[str, float]] = field(default_factory=list)

    def describe(self) -> str:
        chain = " > ".join(
            f"{name} {duration * 1e3:.1f}ms" for name, duration in self.steps
        )
        return (
            f"round {self.round_index}: {self.duration_s * 1e3:.1f}ms"
            + (f" [{chain}]" if chain else "")
        )


def critical_paths(records: list[dict]) -> list[CriticalPath]:
    """Per round, the chain of heaviest children down to a leaf."""
    _, children = _paths_and_children(records)
    out: list[CriticalPath] = []
    for record in records:
        if record["name"] != "round":
            continue
        steps: list[tuple[str, float]] = []
        cursor = record
        while True:
            below = children.get(cursor["span_id"], ())
            if not below:
                break
            cursor = max(
                below, key=lambda c: float(c.get("duration_s", 0.0))
            )
            steps.append(
                (cursor["name"], float(cursor.get("duration_s", 0.0)))
            )
        out.append(
            CriticalPath(
                round_index=record.get("attributes", {}).get("index"),
                duration_s=float(record.get("duration_s", 0.0)),
                steps=steps,
            )
        )
    return out


def render_folded(entries: list[ProfileEntry]) -> str:
    """Collapsed-stack lines (self time in integer microseconds)."""
    lines = [
        f"{entry.path} {round(entry.self_s * 1e6)}"
        for entry in sorted(entries, key=lambda e: e.path)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_table(entries: list[ProfileEntry], limit: int = 30) -> list[str]:
    """Aligned calls/total/self/mean rows, one per entry."""
    lines = [
        f"{'calls':>6}  {'total':>10}  {'self':>10}  "
        f"{'mean':>10}  path",
    ]
    for entry in entries[:limit]:
        lines.append(
            f"{entry.calls:>6}  {entry.total_s:>9.4f}s  "
            f"{entry.self_s:>9.4f}s  {entry.mean_s:>9.4f}s  {entry.path}"
        )
    if len(entries) > limit:
        lines.append(f"(+{len(entries) - limit} more paths)")
    return lines


def render_profile(
    records: list[dict], limit: int = 30, folded: bool = False
) -> str:
    """The ``obs profile`` report for one loaded trace.

    ``limit`` bounds both lists: the span paths with the most self
    time, and the slowest rounds' critical paths.
    """
    entries = fold_spans(records)
    if folded:
        return render_folded(entries)
    lines = [
        f"Trace profile: {len(records)} spans, "
        f"{len(entries)} distinct paths",
        "",
        *render_table(entries, limit),
    ]
    rounds = critical_paths(records)
    if rounds:
        lines.append("")
        lines.append("Critical path per round:")
        slowest = sorted(rounds, key=lambda c: c.duration_s, reverse=True)
        for critical in slowest[:limit]:
            lines.append("  " + critical.describe())
        if len(rounds) > limit:
            lines.append(f"(+{len(rounds) - limit} more rounds)")
    return "\n".join(lines) + "\n"
