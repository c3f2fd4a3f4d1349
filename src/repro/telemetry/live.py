"""Streaming telemetry: per-round flush records and pluggable sinks.

PR 3's metrics/trace/event layer is snapshot-at-exit: a long fleet run
is a black box until it finishes.  This module makes the same
registry/event state consumable *during* a run: at every round
boundary the engine calls :meth:`~repro.telemetry.core.Telemetry.flush_round`,
which folds the live state into one ``repro.stream.v1`` record — the
cumulative metrics snapshot, the events emitted since the previous
flush, and any alert transitions — and hands it to every attached
:class:`TelemetrySink`.  The record is encoded once per flush, as its
JSONL line (:func:`stream_line`), and every sink receives that line.
The metrics part is the registry's cached compact encoding
(:meth:`~repro.telemetry.metrics.MetricsRegistry.to_json`), which
re-renders only the series that changed since the previous flush, so
a per-tick flush costs what moved, not the whole 10 KB record.

:class:`JsonlStreamSink` appends one record per flush to a JSONL file.
Each append is a single ``os.write`` of one complete line on an
``O_APPEND`` descriptor — all-or-nothing with respect to process
death, so a SIGTERM/SIGKILL mid-run never tears a line. ``fsync``
lands at rotation boundaries and on close (per-record fsync would
dominate the flush budget); only an OS crash or power loss can tear
the final line, and :meth:`JsonlStreamSink.on_resume` repairs exactly
that case. Rotation goes through ``os.replace`` (the same atomic
primitive as :func:`repro.ioutils.atomic_write_text`), so a crash
during rotation leaves either the old layout or the new one, never a
torn file.

Checkpoint/resume stitching: a resumed run replays no completed
round, but the killed process may have flushed rounds *past* the
checkpoint it resumes from (flushes land before the checkpoint
cadence decides to persist).  ``on_resume(first_round)`` drops every
record for rounds the resumed run will flush again, so the final file
is one coherent stream — monotone round indices, no duplicates, no
gaps — indistinguishable from an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable

from repro.ioutils import atomic_write_text

STREAM_SCHEMA = "repro.stream.v1"

#: ``json.dumps(..., sort_keys=True)`` without building an encoder per
#: call.
_ENCODER = json.JSONEncoder(sort_keys=True)


def stream_line(
    run_id: str,
    seq: int,
    round_index: int,
    time_s: float,
    metrics_json: str,
    events: list[dict],
    alerts: list[dict],
) -> str:
    """One ``repro.stream.v1`` record (see ``repro.telemetry.schema``)
    as its JSONL line: ``json.dumps(record, sort_keys=True) + "\n"``.

    ``metrics_json`` is the compact metrics snapshot
    (:meth:`~repro.telemetry.metrics.MetricsRegistry.to_json`), spliced
    in as text at its sorted-key position (after ``events``, before
    ``round``) so the flush never re-encodes it.
    """
    head = _ENCODER.encode({"alerts": alerts, "events": events})
    tail = _ENCODER.encode(
        {
            "round": round_index,
            "run_id": run_id,
            "schema": STREAM_SCHEMA,
            "seq": seq,
            "time_s": time_s,
        }
    )
    return "".join(
        (head[:-1], ', "metrics": ', metrics_json, ", ", tail[1:], "\n")
    )


class TelemetrySink(ABC):
    """Receives one record per flush; subclasses define delivery."""

    @abstractmethod
    def emit(self, line: str) -> None:
        """Deliver one record, encoded once as its :func:`stream_line`."""

    @abstractmethod
    def on_resume(self, first_round: int) -> None:
        """A resumed run will re-flush rounds >= ``first_round``."""

    @abstractmethod
    def close(self) -> None:
        """Release any resources; further emits are undefined."""


def _rotated_parts(path: Path) -> list[Path]:
    """Existing rotation parts of ``path``, newest first.

    Rotation follows the logrotate convention: ``<name>.1`` is the
    most recently rotated chunk, higher indices are older.
    """
    parts = []
    index = 1
    while True:
        part = path.with_name(f"{path.name}.{index}")
        if not part.exists():
            break
        parts.append(part)
        index += 1
    return parts


def _parse_lines(text: str, torn_ok: bool) -> list[dict]:
    """Parse JSONL content; a torn *final* line is dropped, anything
    else malformed raises."""
    records: list[dict] = []
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if torn_ok and i == len(lines) - 1:
                break  # torn trailing line from a mid-write kill
            raise
    return records


def read_stream_records(path: str | Path) -> list[dict]:
    """Every record of a (possibly rotated) stream, in emit order.

    Rotated parts come before the live file, oldest (highest index)
    first.  A torn trailing line — the only corruption the append
    discipline permits — is silently dropped.
    """
    path = Path(path)
    records: list[dict] = []
    for part in reversed(_rotated_parts(path)):
        # Only the newest bytes on disk can be torn; rotated parts
        # were complete files when they were renamed.
        records.extend(
            _parse_lines(part.read_text(encoding="utf-8"), torn_ok=False)
        )
    if path.exists():
        records.extend(
            _parse_lines(path.read_text(encoding="utf-8"), torn_ok=True)
        )
    return records


class JsonlStreamSink(TelemetrySink):
    """Append-only JSONL stream with atomic rotation and fsync.

    Attributes:
        path: The live stream file; rotation shifts it onto the
            ``<name>.1``, ``<name>.2``, ... chain (logrotate
            convention: ``.1`` newest) and starts a fresh file.
        rotate_bytes: Rotate before an append would push the live file
            past this size (``None`` = never rotate).
        resume: ``True`` keeps whatever stream is already at ``path``
            (a resumed run stitches onto it via :meth:`on_resume`);
            the default truncates stale content so a fresh run never
            appends onto a previous run's stream.
    """

    def __init__(
        self,
        path: str | Path,
        rotate_bytes: int | None = None,
        resume: bool = False,
    ) -> None:
        if rotate_bytes is not None and rotate_bytes < 1:
            raise ValueError(
                f"rotate_bytes must be >= 1, got {rotate_bytes}"
            )
        self.path = Path(path)
        self.rotate_bytes = rotate_bytes
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: int | None = None
        if not resume:
            for part in _rotated_parts(self.path):
                part.unlink()
            self.path.unlink(missing_ok=True)
        self._size = self.path.stat().st_size if self.path.exists() else 0
        self._closed = False
        # Open eagerly: the descriptor exists for the sink's whole
        # lifetime, so an unwritable path fails at attach time (not at
        # the first round flush) and every construction must be paired
        # with close() — the leak the CLI error paths are tested for.
        self._open()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the descriptor."""
        return self._closed

    def _open(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    def _close_fd(self) -> None:
        if self._fd is not None:
            os.fsync(self._fd)
            os.close(self._fd)
            self._fd = None

    def _rotate(self) -> None:
        """Shift the live file onto the rotation chain atomically."""
        self._close_fd()  # fsyncs: the rotated part is durable
        # Renames run newest-part-first so every intermediate state is
        # a valid chain; os.replace is atomic per step.
        parts = _rotated_parts(self.path)
        for part in reversed(parts):
            index = int(part.name.rsplit(".", 1)[1])
            os.replace(
                part, self.path.with_name(f"{self.path.name}.{index + 1}")
            )
        os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        self._size = 0

    def emit(self, line: str) -> None:
        data = line.encode("utf-8")
        if (
            self.rotate_bytes is not None
            and self._size > 0
            and self._size + len(data) > self.rotate_bytes
        ):
            self._rotate()
        fd = self._open()
        # One write of one complete line: atomic w.r.t. process death.
        # fsync waits for rotation/close — per-record it would cost
        # more than the whole flush budget — so only power loss can
        # tear the final line, which read_stream_records/on_resume
        # repair.
        os.write(fd, data)
        self._size += len(data)

    def on_resume(self, first_round: int) -> None:
        """Stitch the stream for a resume starting at ``first_round``.

        Keeps every record for rounds the resumed run will *not*
        flush again (``round < first_round``), drops the rest (the
        resumed run re-emits them), repairs any torn trailing line,
        and rewrites the kept records as one atomic file so the
        stitched stream has no rotation seam from the dead process.
        """
        self._close_fd()
        kept = [
            record
            for record in read_stream_records(self.path)
            if record.get("round", 0) < first_round
        ]
        for part in _rotated_parts(self.path):
            part.unlink()
        atomic_write_text(
            self.path,
            "".join(
                json.dumps(r, sort_keys=True) + "\n" for r in kept
            ),
        )
        self._size = self.path.stat().st_size

    def close(self) -> None:
        self._close_fd()
        self._closed = True


def stream_round_indices(records: Iterable[dict]) -> list[int]:
    """The ``round`` sequence of a stream, in file order."""
    return [int(record["round"]) for record in records]


def check_stream_contiguous(records: list[dict]) -> None:
    """Raise ``ValueError`` unless rounds are 0..N-1 with no gaps or
    duplicates — the stitched-stream invariant the tests and the
    obs-smoke CI job assert."""
    rounds = stream_round_indices(records)
    expected = list(range(len(rounds)))
    if rounds != expected:
        raise ValueError(
            f"stream rounds are not contiguous: got {rounds}"
        )
    seqs = [int(record["seq"]) for record in records]
    if seqs != sorted(seqs):
        raise ValueError(f"stream seq not monotone: {seqs}")
