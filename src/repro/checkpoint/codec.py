"""Lossless JSON encoding of in-flight run state.

Everything a resumed deployment must restore bit-for-bit goes through
here: selection decisions (with their accuracy triples), controller
camera state and accumulated :class:`~repro.engine.core.RunResult`
partials.  All payloads are plain JSON values; floats survive exactly
because JSON round-trips Python doubles.

The module deliberately knows nothing about the engine or the event
simulator — it encodes *values* (decisions, controllers),
so it sits below :mod:`repro.engine` in the layer contract and both
execution environments can share it.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.accuracy import DesiredAccuracy, GlobalAccuracy
from repro.core.controller import (
    CAMERA_ACTIVE,
    EECSController,
    SelectionDecision,
)


# ----------------------------------------------------------------------
# Selection decisions
# ----------------------------------------------------------------------
def decision_to_dict(decision: SelectionDecision) -> dict:
    return {
        "assignment": dict(decision.assignment),
        "baseline": [
            decision.baseline.num_objects,
            decision.baseline.mean_probability,
        ],
        "desired": [
            decision.desired.min_objects,
            decision.desired.min_probability,
        ],
        "achieved": [
            decision.achieved.num_objects,
            decision.achieved.mean_probability,
        ],
        "ranked_camera_ids": list(decision.ranked_camera_ids),
    }


def decision_from_dict(data: dict) -> SelectionDecision:
    return SelectionDecision(
        assignment=dict(data["assignment"]),
        baseline=GlobalAccuracy(*data["baseline"]),
        desired=DesiredAccuracy(*data["desired"]),
        achieved=GlobalAccuracy(*data["achieved"]),
        ranked_camera_ids=list(data["ranked_camera_ids"]),
    )


# ----------------------------------------------------------------------
# Controller camera state (batteries, liveness, matching)
# ----------------------------------------------------------------------
def controller_state_to_dict(controller: EECSController) -> dict:
    """Per-camera mutable controller state: battery consumed totals,
    liveness beliefs and training-item bindings."""
    return {
        camera_id: {
            "consumed_joules": controller.camera(camera_id).battery.consumed,
            "alive": controller.camera(camera_id).alive,
            "matched_item": controller.camera(camera_id).matched_item,
            "mode": controller.camera(camera_id).mode,
        }
        for camera_id in controller.camera_ids
    }


def restore_controller_state(
    controller: EECSController, state: dict
) -> None:
    for camera_id, fields in state.items():
        camera = controller.camera(camera_id)
        camera.alive = bool(fields["alive"])
        camera.matched_item = fields["matched_item"]
        camera.battery.restore_consumed(float(fields["consumed_joules"]))
        # Checkpoints written before the resilience layer carry no
        # mode; they predate degradation, so every camera was active.
        controller.set_camera_mode(
            camera_id, fields.get("mode", CAMERA_ACTIVE)
        )


# ----------------------------------------------------------------------
# Run results
# ----------------------------------------------------------------------
def run_result_to_dict(result) -> dict:
    """A :class:`~repro.engine.core.RunResult` as exact JSON values.

    Used by the CLI's ``--result-out`` dump; two bit-identical runs
    produce byte-identical documents, which is what the
    ``kill-and-resume`` CI matrix diffs.
    """
    return {
        "mode": result.mode,
        "humans_detected": result.humans_detected,
        "humans_present": result.humans_present,
        "energy_joules": result.energy_joules,
        "processing_joules": result.processing_joules,
        "communication_joules": result.communication_joules,
        "energy_by_camera": dict(sorted(result.energy_by_camera.items())),
        "mean_fused_probability": result.mean_fused_probability,
        "frames_evaluated": result.frames_evaluated,
        "processing_seconds": result.processing_seconds,
        "decisions": [decision_to_dict(d) for d in result.decisions],
    }


def chaos_result_to_dict(result) -> dict:
    """A networked run's
    :class:`~repro.engine.environment.NetworkOutcome` as exact JSON
    values.

    The chaos counterpart of :func:`run_result_to_dict`: the CLI's
    ``chaos --result-out`` dump, byte-diffed by the ``kill-and-resume``
    CI matrix to pin quarantine-active kill-and-resume (written with
    sorted keys, so the outcome's own field order never shows).
    """
    return {
        **vars(result),
        "fault_events": [fault_event_to_dict(e) for e in result.fault_events],
        "recovery_events": [
            fault_event_to_dict(e) for e in result.recovery_events
        ],
    }


# ----------------------------------------------------------------------
# Fault-log digests (chaos replay verification)
# ----------------------------------------------------------------------
def fault_event_to_dict(event) -> dict:
    return {
        "time_s": event.time_s,
        "kind": event.kind,
        "subject": event.subject,
        "detail": event.detail,
    }


class EventLogDigest:
    """Running SHA-256 of a growing fault or recovery log.

    A chaos checkpoint records, instead of the events themselves, the
    digest of the canonical JSON of :func:`fault_event_to_dict` over
    the first ``n`` events of each log (``n`` is the injector
    position's ``faults_logged`` / ``recoveries_logged``).  The log is
    append-only, so :meth:`hexdigest` feeds only the events appended
    since its previous call and each checkpoint costs what the tick
    added, not what the run accumulated.
    """

    def __init__(self, events: list) -> None:
        self._events = events
        self._fed = 0
        self._hasher = hashlib.sha256()

    def hexdigest(self) -> str:
        for event in self._events[self._fed:]:
            self._hasher.update(
                json.dumps(
                    fault_event_to_dict(event),
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode()
                + b"\n"
            )
        self._fed = len(self._events)
        return self._hasher.hexdigest()


def policy_state_to_dict(policy) -> dict | None:
    """A coordination policy's mutable per-run state, or ``None``.

    Duck-typed (the codec sits below :mod:`repro.engine`): any object
    with a ``snapshot_state()`` method participates; stateless
    policies return ``None`` and contribute nothing to the payload, so
    checkpoints written before stateful policies existed are unchanged.
    """
    snapshot = getattr(policy, "snapshot_state", None)
    return snapshot() if snapshot is not None else None


def restore_policy_state(policy, state: dict | None) -> None:
    """Adopt a :func:`policy_state_to_dict` payload (no-op for
    stateless policies or empty payloads)."""
    restore = getattr(policy, "restore_state", None)
    if restore is not None and state:
        restore(state)


def live_telemetry_to_dict(telemetry) -> dict:
    """Streaming-flush continuity state of a ``Telemetry`` object.

    A resumed run must keep emitting ``repro.stream.v1`` records with
    monotone ``seq`` and the alert engine must not re-fire conditions
    that were already active when the checkpoint was cut, so both ride
    in the run checkpoint beside the metrics snapshot.
    """
    return {
        "flush_seq": telemetry._flush_seq,
        "alerts": telemetry.alerts.snapshot(),
    }


def restore_live_telemetry(telemetry, state: dict) -> None:
    """Adopt a :func:`live_telemetry_to_dict` payload."""
    telemetry._flush_seq = int(state.get("flush_seq", 0))
    telemetry.alerts.restore(state.get("alerts", {}))
