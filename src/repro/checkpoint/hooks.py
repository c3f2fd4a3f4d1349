"""Checkpoint cadence, graceful termination and crash injection.

:class:`RunCheckpointer` is the object a deployment loop drives: the
loop reports each completed unit of work (a round for the frame-loop
engine, a frame tick for the event-driven environment) together with a
``capture`` callback that serialises the current state, and the
checkpointer decides when to persist it — every ``K`` units, plus
immediately when a SIGTERM arrived, so an orchestrator's shutdown
signal (systemd stop, Kubernetes eviction, a queue pre-emption) ends
the run at the last consistent snapshot instead of losing it.

``crash_after`` is the crash-safety test hook: after the checkpoint at
that position is written, the checkpointer raises
:class:`SimulatedCrash` — the controller-process analogue of the node
crashes the fault subsystem injects, used by the kill-and-resume
golden tests and the CI smoke job.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.checkpoint.store import (
    CheckpointStore,
    document_header,
    normalize_fingerprint,
)


@dataclass(frozen=True)
class CheckpointConfig:
    """How (and whether) a deployment checkpoints.

    Attributes:
        directory: Checkpoint directory (created on first save).
        every: Persist a snapshot every this-many completed units
            (rounds for engine runs, frame ticks for chaos runs).
        resume: Restore from the directory's checkpoint instead of
            starting fresh.  Resuming with no checkpoint on disk (the
            crash happened before the first save) starts from scratch,
            which is the correct continuation.
        crash_after: Test hook — raise :class:`SimulatedCrash` right
            after the checkpoint at this 0-based position is written.
    """

    directory: str | Path
    every: int = 1
    resume: bool = False
    crash_after: int | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.crash_after is not None and self.crash_after < 0:
            raise ValueError("crash_after cannot be negative")


class CheckpointInterrupted(RuntimeError):
    """The run stopped early at a consistent checkpoint.

    Carries where the snapshot lives and how far the run got, so
    callers (the CLI, the tests) can tell the user how to resume.
    """

    def __init__(self, message: str, path: Path, position: int) -> None:
        super().__init__(message)
        self.path = path
        self.position = position


class SimulatedCrash(CheckpointInterrupted):
    """An injected controller-process crash (``crash_after`` hook)."""


class RunCheckpointer:
    """Drives one run's checkpoint cadence against a store.

    Usage from a deployment loop::

        state = checkpointer.begin("run", fingerprint)   # None = fresh
        ...restore from state...
        for index, unit in enumerate(units):
            ...execute unit...
            checkpointer.unit_complete(index, len(units), capture)
        checkpointer.finish()

    ``begin`` also installs a SIGTERM handler (main thread only; a
    worker thread leaves process signals alone) that requests a save
    at the next unit boundary followed by :class:`CheckpointInterrupted`.
    ``finish`` restores the previous handler; the engine calls it from
    a ``finally`` block, so the handler never leaks past the run.
    """

    def __init__(self, config: CheckpointConfig) -> None:
        self.config = config
        self.store = CheckpointStore(config.directory)
        self._header = document_header("run", {})
        self._sigterm_received = False
        self._previous_handler = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self, kind: str, fingerprint: dict) -> dict | None:
        """Start (or resume) a run; returns the state to restore."""
        # Normalised and encoded once: every save writes the same
        # document header and encodes only its state.
        fingerprint = normalize_fingerprint(fingerprint)
        self._header = document_header(kind, fingerprint)
        self._install_sigterm_handler()
        if self.config.resume:
            return self.store.load(kind, fingerprint)
        return None

    def finish(self) -> None:
        """Uninstall the SIGTERM handler (idempotent)."""
        if self._previous_handler is not None:
            signal.signal(signal.SIGTERM, self._previous_handler)
            self._previous_handler = None

    # ------------------------------------------------------------------
    # Cadence
    # ------------------------------------------------------------------
    def save(self, position: int, capture: Callable[[], dict]) -> Path:
        """Unconditionally persist ``capture()`` as position+1 done."""
        return self.store.save(self._header, capture())

    def save_due(self, position: int, total: int) -> bool:
        """Whether :meth:`unit_complete` at ``position`` will save: on
        the cadence (never after the last unit), at the crash hook, or
        after a SIGTERM."""
        completed = position + 1
        return (
            (completed % self.config.every == 0 and completed < total)
            or self.config.crash_after == position
            or self._sigterm_received
        )

    def unit_complete(
        self,
        position: int,
        total: int,
        capture: Callable[[], dict],
    ) -> None:
        """Report one completed unit; saves / stops as configured.

        Raises:
            CheckpointInterrupted: A SIGTERM arrived; the snapshot for
                ``position`` is on disk.
            SimulatedCrash: The ``crash_after`` hook fired.
        """
        if self.save_due(position, total):
            path = self.save(position, capture)
            if self._sigterm_received:
                raise CheckpointInterrupted(
                    f"SIGTERM: run checkpointed after unit {position} "
                    f"at {path}; re-run with resume enabled to continue",
                    path=path,
                    position=position,
                )
            if self.config.crash_after == position:
                raise SimulatedCrash(
                    f"simulated controller crash after unit {position} "
                    f"(checkpoint at {path})",
                    path=path,
                    position=position,
                )

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _install_sigterm_handler(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        try:
            self._previous_handler = signal.signal(
                signal.SIGTERM, self._on_sigterm
            )
        except ValueError:  # pragma: no cover - non-main interpreter
            self._previous_handler = None

    def _on_sigterm(self, signum, frame) -> None:  # pragma: no cover
        self._sigterm_received = True
