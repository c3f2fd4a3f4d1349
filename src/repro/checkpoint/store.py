"""Versioned, atomically written checkpoint documents.

A checkpoint directory holds one ``checkpoint.json``: the latest
consistent snapshot of a run in flight.  Every save goes through
:func:`~repro.ioutils.atomic_write_bytes` — a temporary file in the
directory, ``fsync``, then ``os.replace`` — so a controller crash at
any instant, including mid-checkpoint, leaves either the previous
complete checkpoint or the new one on disk, never a torn file.  The
document is written compact (no indentation, keys sorted), which keeps
serialisation on CPython's C encoder: a chaos run saves every tick.

A run's fingerprint, kind and schema never change between its saves,
so everything before the state — about 1 KB of a 1.4 KB chaos
checkpoint — is encoded once per run (:func:`document_header`).  Each
save encodes only the state, appends it to those bytes and writes the
result in one piece; the directory is created on the first save, not
on every one.  The bytes are exactly ``json.dumps(document,
sort_keys=True) + "\n"``.

The document format (``repro.checkpoint.v2``, documented next to the
telemetry schemas in :mod:`repro.telemetry.schema`)::

    {"schema": "repro.checkpoint.v2",
     "kind": "run" | "chaos",
     "fingerprint": {...},   # the configuration that produced it
     "state": {...}}         # kind-specific resume payload

The ``fingerprint`` pins the run configuration (policy, seed, window,
budget, dataset, fault plan ...): :meth:`CheckpointStore.load` refuses
a checkpoint whose fingerprint does not match the resuming run's,
because restoring state into a different configuration would silently
produce garbage instead of a bit-identical continuation.  A v1
document is refused with a message telling the user to restart the
run without resuming.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ioutils import atomic_write_bytes

#: Schema tag written into (and required from) every checkpoint file.
CHECKPOINT_SCHEMA = "repro.checkpoint.v2"


class CheckpointError(RuntimeError):
    """A checkpoint document is unreadable, mistyped or mismatched."""


def normalize_fingerprint(value: object) -> object:
    """Canonicalise through JSON so in-memory fingerprints (tuples,
    ints vs floats) compare equal to their on-disk form."""
    return json.loads(json.dumps(value, sort_keys=True))


def document_header(kind: str, fingerprint: dict) -> bytes:
    """The bytes of a checkpoint document before its state payload.

    ``fingerprint`` is written as given, so a run that saves many
    times normalises it once (:func:`normalize_fingerprint`, as
    :class:`~repro.checkpoint.hooks.RunCheckpointer` does).  JSON
    encodes a tuple as a list, so only a dict with non-string keys
    needs it for the bytes to match its normalised form.
    """
    head = json.dumps(
        {
            "fingerprint": fingerprint,
            "kind": kind,
            "schema": CHECKPOINT_SCHEMA,
        },
        sort_keys=True,
    )
    # "state" sorts last: the document continues where this one closes.
    return (head[:-1] + ', "state": ').encode("utf-8")


class CheckpointStore:
    """One run's checkpoint directory."""

    FILENAME = "checkpoint.json"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._directory_made = False

    @property
    def path(self) -> Path:
        return self.directory / self.FILENAME

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, header: bytes, state: dict) -> Path:
        """Atomically persist one snapshot (replacing any previous):
        ``header`` (from :func:`document_header`) followed by the
        encoded ``state``."""
        if not self._directory_made:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._directory_made = True
        body = json.dumps(state, sort_keys=True).encode("utf-8")
        return atomic_write_bytes(self.path, header + body + b"}\n")

    def load(self, kind: str, fingerprint: dict) -> dict | None:
        """The stored resume state, or ``None`` when no checkpoint
        exists (a crash before the first save resumes from scratch).

        Raises:
            CheckpointError: The file is not a ``repro.checkpoint.v2``
                document (a JSON object) of the requested kind, or it
                was written by a different run configuration.
        """
        if not self.exists():
            return None
        try:
            document = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint at {self.path}: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise CheckpointError(
                f"{self.path}: checkpoint is a JSON "
                f"{type(document).__name__}, not an object"
            )
        schema = document.get("schema")
        if schema == "repro.checkpoint.v1":
            raise CheckpointError(
                f"{self.path}: a repro.checkpoint.v1 document cannot be "
                f"resumed by this version ({CHECKPOINT_SCHEMA}); restart "
                f"the run without --resume"
            )
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{self.path}: schema {schema!r} is not "
                f"{CHECKPOINT_SCHEMA!r}"
            )
        if document.get("kind") != kind:
            raise CheckpointError(
                f"{self.path}: checkpoint kind {document.get('kind')!r} "
                f"does not match this deployment ({kind!r})"
            )
        stored = document.get("fingerprint")
        expected = normalize_fingerprint(fingerprint)
        if stored != expected:
            drift = sorted(
                key
                for key in set(stored or {}) | set(expected)
                if (stored or {}).get(key) != expected.get(key)
            )
            raise CheckpointError(
                f"{self.path}: checkpoint was written by a different run "
                f"configuration (fields that differ: {', '.join(drift)})"
            )
        state = document.get("state")
        if not isinstance(state, dict):
            raise CheckpointError(f"{self.path}: missing state payload")
        return state
