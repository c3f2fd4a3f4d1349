"""Hierarchical run traces.

A :class:`Tracer` records *spans* — named, attributed, wall-clock
timed intervals arranged in a tree: run → round → phase → per-camera
op.  Spans come from the :meth:`Tracer.span` context manager in
straight-line code, or from the explicit :meth:`Tracer.begin` /
:meth:`Tracer.end` pair when the interval is driven by discrete
events (the chaos controller opens a round span when an assessment
starts and closes it when the next one begins).

The tracer is the repo's only timer: the engine's phase sections are
spans, and the CLI's ``--perf-report`` folds them by name with
:mod:`repro.obs.profile`.  Export is JSONL, one span per line (see
``repro.telemetry.schema`` for the record layout).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.ioutils import atomic_write_text

SPAN_SCHEMA = "repro.span.v1"


@dataclass
class Span:
    """One timed interval in the run tree.

    Attributes:
        span_id: Unique within the tracer, assigned at begin time.
        parent_id: Enclosing span's id, ``None`` for roots.
        name: What the interval is (``"run"``, ``"round"``, ...).
        start_s: Wall-clock start, tracer-clock seconds.
        end_s: Wall-clock end; ``None`` while the span is open.
        attributes: Free-form context (mode, round index, camera id,
            simulated time, ...) — JSON-able values only.
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_record(self, run_id: str = "") -> dict:
        """The span's JSONL record."""
        return {
            "schema": SPAN_SCHEMA,
            "run_id": run_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Collects a tree of spans for one process/run."""

    def __init__(
        self,
        run_id: str = "",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.run_id = run_id
        self._clock = clock
        self._next_id = 0
        self._stack: list[Span] = []
        self.spans: list[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, **attributes: object) -> Span:
        """Open a span under the innermost open span."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start_s=self._clock(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span, **attributes: object) -> Span:
        """Close a span (and any deeper spans left open inside it)."""
        end_s = self._clock()
        if span.end_s is not None:
            return span
        while self._stack:
            top = self._stack.pop()
            if top.end_s is None:
                top.end_s = end_s
            if top is span:
                break
        else:
            span.end_s = end_s
        span.attributes.update(attributes)
        return span

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        opened = self.begin(name, **attributes)
        try:
            yield opened
        finally:
            self.end(opened)

    def finish(self) -> None:
        """Close every span still open (end-of-run cleanup)."""
        while self._stack:
            self.end(self._stack[-1])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[dict]:
        for span in self.spans:
            if span.end_s is not None:
                yield span.to_record(self.run_id)

    def write_jsonl(self, path: str | Path) -> int:
        """Write one JSON record per closed span (atomically); returns
        the count."""
        records = list(self.iter_records())
        atomic_write_text(
            path,
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        )
        return len(records)

