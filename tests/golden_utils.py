"""Golden-fixture plumbing for the engine-equivalence regression.

The fixtures under ``tests/goldens/`` were captured from the
pre-refactor runner / chaos implementations (commit ``fecd7f2``) and
pin every externally visible field of
:class:`~repro.engine.core.RunResult` and
:class:`~repro.engine.environment.NetworkOutcome` bit-for-bit.  The
equivalence tests in ``test_golden_equivalence.py`` replay the same
configurations through the unified deployment engine and compare
field-by-field — floats included, since JSON round-trips Python
doubles exactly.

``training_results.json`` pins the offline-trained libraries of
datasets 1-3 (the process-shared contexts, seeds ``2017 + N``): every
profile's threshold, precision, recall, f_score and calibrator
weight/bias, as float ``repr`` strings.

Regenerate (only when a deliberate behaviour change is made)::

    PYTHONPATH=src python tests/golden_utils.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The deployment window shared by every run golden: 12 ground-truth
#: frames of dataset #1's test segment (one full assessment round for
#: the EECS modes).
RUN_WINDOW = {"start": 1000, "end": 1300}


def golden_run_configs(camera_ids: list[str]) -> dict[str, dict]:
    """The four policy configurations the goldens pin."""
    c1, c2 = camera_ids[:2]
    return {
        "all_best": {"policy": "all_best", "budget": 2.0, **RUN_WINDOW},
        "subset": {"policy": "subset", "budget": 2.0, **RUN_WINDOW},
        "full": {"policy": "full", "budget": 2.0, **RUN_WINDOW},
        "fixed": {
            "policy": "fixed",
            "assignment": {c1: "HOG", c2: "ACF"},
            **RUN_WINDOW,
        },
    }


#: Chaos configurations (:func:`network_spec` arguments): a zero-fault
#: baseline plus loss + crash.
GOLDEN_CHAOS_CONFIGS = {
    "zero_fault": {"frames": 8, "seed": 7},
    "faulty": {"frames": 8, "seed": 7, "loss_rate": 0.2, "crash_count": 1},
}


def network_spec(frames: int, seed: int = 7, budget: float = 2.0, **fields):
    """A networked dataset-#1 spec over the first ``frames``
    ground-truth frames of the test segment (frames 1000, 1025, ...)."""
    from repro.engine.spec import DeploymentSpec

    return DeploymentSpec(
        dataset_number=1,
        network=True,
        start=1000,
        end=1000 + 25 * frames,
        seed=seed,
        budget=budget,
        **fields,
    )


def network_horizon_s(frames: int) -> float:
    """Simulated duration of a ``frames``-frame networked run: one
    2 s tick per frame plus four ticks of start-up slack."""
    return 2.0 * (frames + 4)


def decision_fingerprint(decision) -> dict:
    return {
        "assignment": sorted(decision.assignment.items()),
        "num_active": decision.num_active,
        "ranked_camera_ids": list(decision.ranked_camera_ids),
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
    }


def run_result_fingerprint(result) -> dict:
    """Every field of a RunResult, JSON-serialisable and exact."""
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
        "decisions": [decision_fingerprint(d) for d in result.decisions],
    }


def event_fingerprint(event) -> dict:
    return {
        "kind": event.kind,
        "subject": event.subject,
        "time_s": event.time_s,
    }


def chaos_result_fingerprint(result) -> dict:
    """Every field of a NetworkOutcome."""
    return {
        "humans_detected": result.humans_detected,
        "humans_present": result.humans_present,
        "delivered_messages": result.delivered_messages,
        "dropped_messages": result.dropped_messages,
        "retransmissions": result.retransmissions,
        "gave_up": result.gave_up,
        "duplicates_dropped": result.duplicates_dropped,
        "suppressed_sends": result.suppressed_sends,
        "battery_by_camera": dict(sorted(result.battery_by_camera.items())),
        "num_decisions": result.num_decisions,
        "final_assignment": dict(sorted(result.final_assignment.items())),
        "fault_events": [event_fingerprint(e) for e in result.fault_events],
        "recovery_events": [
            event_fingerprint(e) for e in result.recovery_events
        ],
        "simulated_s": result.simulated_s,
        "corrupted_received": result.corrupted_received,
        "breaker_blocked": result.breaker_blocked,
        "camera_modes": dict(sorted(result.camera_modes.items())),
    }


def make_golden_runner():
    """The exact engine construction the goldens were captured with
    (identical to the suite's session-scoped ``runner1`` fixture)."""
    import numpy as np

    from repro.datasets.synthetic import make_dataset
    from repro.engine import DeploymentContext, DeploymentEngine

    return DeploymentEngine(
        DeploymentContext.build(
            make_dataset(1), rng=np.random.default_rng(2017)
        )
    )


def collect_run_goldens(runner) -> dict:
    out = {}
    for name, config in golden_run_configs(runner.dataset.camera_ids).items():
        result = runner.run(**config)
        out[name] = run_result_fingerprint(result)
    return out


def collect_chaos_goldens(runner) -> dict:
    out = {}
    for name, kwargs in GOLDEN_CHAOS_CONFIGS.items():
        result = network_spec(**kwargs).execute(engine=runner)
        out[name] = chaos_result_fingerprint(result)
    return out


#: Datasets whose trained libraries ``training_results.json`` pins.
TRAINING_DATASETS = (1, 2, 3)


def training_fingerprint(library) -> dict:
    """Every trained profile's sweep outcome and calibrator, exactly."""
    out = {}
    for item_name in library.names:
        item = library.get(item_name)
        out[item_name] = {
            algorithm: {
                field: repr(float(value))
                for field, value in (
                    ("threshold", profile.threshold),
                    ("precision", profile.precision),
                    ("recall", profile.recall),
                    ("f_score", profile.f_score),
                    ("weight", profile.calibrator.weight),
                    ("bias", profile.calibrator.bias),
                )
            }
            for algorithm, profile in item.profiles.items()
        }
    return out


def collect_training_goldens() -> dict:
    from repro.engine.context import shared_context

    return {
        str(number): training_fingerprint(shared_context(number).library)
        for number in TRAINING_DATASETS
    }


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


def capture() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    runner = make_golden_runner()
    for name, data in (
        ("run_results", collect_run_goldens(runner)),
        ("chaos_results", collect_chaos_goldens(runner)),
        ("training_results", collect_training_goldens()),
    ):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    capture()
