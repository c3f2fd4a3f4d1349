"""Crash-safe checkpoint/resume for long-running deployments.

The paper sizes per-frame energy budgets from a 6-hour operation time
(Section VI): deployments are *long*.  This package makes them
restartable — the deployment engine snapshots its full mutable state
(clock, battery totals, accumulated result
partials, selection decisions, telemetry counters) to a versioned,
atomically written JSON checkpoint every ``K`` rounds and on SIGTERM,
and a resumed run continues bit-identically to one that was never
interrupted.

Layers:

* :mod:`repro.checkpoint.store` — the ``repro.checkpoint.v2``
  document, fingerprint validation, atomic persistence.
* :mod:`repro.checkpoint.codec` — exact JSON encoding of decisions,
  controller state and run results.
* :mod:`repro.checkpoint.hooks` — cadence, SIGTERM handling and the
  ``crash_after`` crash-injection test hook.

The package sits below :mod:`repro.engine` in the layer contract: it
encodes values and stores documents; the engine and the environments
decide *what* their state is.
"""

from repro.checkpoint.codec import (
    decision_from_dict,
    decision_to_dict,
    run_result_to_dict,
)
from repro.checkpoint.hooks import (
    CheckpointConfig,
    CheckpointInterrupted,
    RunCheckpointer,
    SimulatedCrash,
)
from repro.checkpoint.store import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointStore,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointInterrupted",
    "CheckpointStore",
    "RunCheckpointer",
    "SimulatedCrash",
    "decision_from_dict",
    "decision_to_dict",
    "run_result_to_dict",
]
