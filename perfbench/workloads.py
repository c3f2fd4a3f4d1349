"""The benchmark's workloads: inputs from a seed, one deployment, and
the checks on its output.

Every workload drives the program only through its public entry
points — ``DeploymentSpec.build_engine``/``execute`` and
``repro.experiments.faults.run_chaos`` — with the serial executor.
A workload seed expands into a fixed cycle of distinct inputs; the
benchmark deploys them in order, cycle after cycle, so the simulated
statistics of one cycle are the statistics of any whole run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.checkpoint.hooks import CheckpointConfig
from repro.engine.spec import DeploymentSpec
from repro.experiments.faults import ChaosSpec, run_chaos
from repro.resilience.ladder import ResilienceConfig
from repro.telemetry import JsonlStreamSink, Telemetry
from repro.telemetry.live import check_stream_contiguous, read_stream_records

BUDGET = 2.0
#: Nominal length of one cycle: each workload's cycle is sized to take
#: about this long on a 2-vCPU host, and a run of ``--seconds`` deploys
#: ``round(seconds / CYCLE_SECONDS)`` cycles.
CYCLE_SECONDS = 4.0


@dataclass
class Outcome:
    """What one deployment produced, reduced to what the benchmark
    reports and checks."""

    camera_frames: int
    humans_detected: int
    humans_present: int
    joules: float
    digest: str
    errors: list[str]
    #: Layer counts only the result reveals, summed by the traced run.
    counts: dict = field(default_factory=dict)


def deployment_seeds(workload_seed: int, count: int) -> list[int]:
    """``count`` distinct deployment seeds derived from the workload seed."""
    rng = random.Random(workload_seed)
    seeds: list[int] = []
    while len(seeds) < count:
        seed = rng.randrange(1, 2**31)
        if seed not in seeds:
            seeds.append(seed)
    return seeds


def _digest(payload: dict) -> str:
    # json.dumps writes floats with repr, so equal digests mean
    # bit-identical values.
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _count_errors(detected: int, present: int) -> list[str]:
    if present <= 0:
        return [f"no humans present ({present})"]
    if not 0 <= detected <= present:
        return [f"humans_detected {detected} outside [0, {present}]"]
    return []


def check_run_result(result) -> list[str]:
    """Output checks on a ``RunResult``."""
    errors = _count_errors(result.humans_detected, result.humans_present)
    per_camera = sum(result.energy_by_camera.values())
    if not _close(per_camera, result.energy_joules):
        errors.append(
            f"per-camera energies sum to {per_camera!r}, "
            f"energy_joules is {result.energy_joules!r}"
        )
    split = result.processing_joules + result.communication_joules
    if not _close(split, result.energy_joules):
        errors.append(
            f"processing + communication = {split!r}, "
            f"energy_joules is {result.energy_joules!r}"
        )
    if not (math.isfinite(result.energy_joules) and result.energy_joules > 0):
        errors.append(f"energy_joules is {result.energy_joules!r}")
    if result.frames_evaluated <= 0:
        errors.append("no frames evaluated")
    return errors


def run_result_digest(result) -> str:
    return _digest(
        {
            "mode": result.mode,
            "detected": result.humans_detected,
            "present": result.humans_present,
            "energy": result.energy_joules,
            "processing": result.processing_joules,
            "communication": result.communication_joules,
            "by_camera": sorted(result.energy_by_camera.items()),
            "fused": result.mean_fused_probability,
            "frames": result.frames_evaluated,
            "decisions": [
                sorted(decision.assignment.items())
                for decision in result.decisions
            ],
        }
    )


class SpecWorkload:
    """Ideal-environment deployments built from ``DeploymentSpec``."""

    def __init__(self, seeds_per_cycle: int, specs: list[dict]):
        self.seeds_per_cycle = seeds_per_cycle
        self.specs = specs
        #: Trained contexts; the first ``contexts`` inputs use each once.
        self.contexts = len(specs)

    def inputs(self, workload_seed: int) -> list[DeploymentSpec]:
        return [
            DeploymentSpec(seed=seed, executor="serial", **fields)
            for seed in deployment_seeds(workload_seed, self.seeds_per_cycle)
            for fields in self.specs
        ]

    @contextmanager
    def workspace(self):
        yield None

    def deploy(self, spec: DeploymentSpec, workdir) -> tuple:
        # execute(engine=...) runs the engine's seed, so every
        # deployment builds its own engine from its own spec.
        engine = spec.build_engine()
        try:
            result = spec.execute(engine=engine)
        finally:
            engine.close()
        return result, len(engine.dataset.camera_ids)

    def outcome(self, spec: DeploymentSpec, raw: tuple, workdir) -> Outcome:
        result, cameras = raw
        return Outcome(
            camera_frames=result.frames_evaluated * cameras,
            humans_detected=result.humans_detected,
            humans_present=result.humans_present,
            joules=result.energy_joules,
            digest=run_result_digest(result),
            errors=check_run_result(result),
        )


CHAOS_FRAMES = 72
STREAM = "stream.jsonl"
CHECKPOINTS = "checkpoints"


class ChaosWorkload:
    """Networked deployments under injected faults, with a telemetry
    stream and a checkpoint every tick written to a fresh directory."""

    contexts = 1

    def __init__(self, scratch_root: Path, seeds_per_cycle: int):
        self.scratch_root = scratch_root
        self.seeds_per_cycle = seeds_per_cycle

    def inputs(self, workload_seed: int) -> list[ChaosSpec]:
        return [
            ChaosSpec(
                dataset_number=1,
                loss_rate=0.2,
                crash_count=1,
                sensor_noise=0.3,
                fault_camera_count=1,
                num_frames=CHAOS_FRAMES,
                budget=BUDGET,
                seed=seed,
                resilience=ResilienceConfig(enabled=True, seed=seed),
            )
            for seed in deployment_seeds(workload_seed, self.seeds_per_cycle)
        ]

    @contextmanager
    def workspace(self):
        self.scratch_root.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=self.scratch_root))
        try:
            yield workdir
        finally:
            shutil.rmtree(workdir)
            self.scratch_root.rmdir()

    def deploy(self, spec: ChaosSpec, workdir: Path) -> tuple:
        engine = DeploymentSpec(
            dataset_number=1, seed=spec.seed, executor="serial"
        ).build_engine()
        telemetry = Telemetry(run_id=f"chaos-{spec.seed}")
        telemetry.attach_sink(JsonlStreamSink(workdir / STREAM))
        try:
            result = run_chaos(
                spec,
                engine,
                telemetry=telemetry,
                checkpoint=CheckpointConfig(
                    directory=workdir / CHECKPOINTS, every=1
                ),
            )
        finally:
            telemetry.close_sinks()
            engine.close()
        return result, telemetry

    def outcome(self, spec: ChaosSpec, raw: tuple, workdir: Path) -> Outcome:
        result, telemetry = raw
        errors = _count_errors(result.humans_detected, result.humans_present)
        errors += _check_energy_counters(telemetry, result.battery_by_camera)
        errors += _check_stream(workdir / STREAM, spec)
        errors += _check_checkpoint(workdir / CHECKPOINTS, result)
        return Outcome(
            camera_frames=spec.num_frames * len(result.battery_by_camera),
            humans_detected=result.humans_detected,
            humans_present=result.humans_present,
            joules=sum(result.battery_by_camera.values()),
            digest=_digest(
                {
                    "detected": result.humans_detected,
                    "present": result.humans_present,
                    "delivered": result.delivered_messages,
                    "dropped": result.dropped_messages,
                    "retransmissions": result.retransmissions,
                    "gave_up": result.gave_up,
                    "duplicates": result.duplicates_dropped,
                    "suppressed": result.suppressed_sends,
                    "battery": sorted(result.battery_by_camera.items()),
                    "decisions": result.num_decisions,
                    "assignment": sorted(result.final_assignment.items()),
                    "faults": [
                        (e.kind, e.subject, e.time_s)
                        for e in result.fault_events
                    ],
                    "recoveries": [
                        (e.kind, e.subject, e.time_s)
                        for e in result.recovery_events
                    ],
                    "simulated_s": result.simulated_s,
                    "corrupted": result.corrupted_received,
                    "blocked": result.breaker_blocked,
                    "modes": sorted(result.camera_modes.items()),
                }
            ),
            errors=errors,
            counts={"transport.retransmissions": result.retransmissions},
        )


def _check_energy_counters(telemetry, battery_by_camera: dict) -> list[str]:
    """Each camera's ``energy_joules_total`` series (processing,
    communication and retransmission) must add up to what its battery
    paid."""
    by_node: dict[str, float] = {}
    processing = 0.0
    for metric in telemetry.registry.snapshot()["metrics"]:
        if metric["name"] != "energy_joules_total":
            continue
        for series in metric["series"]:
            node = series["labels"]["node"]
            if node not in battery_by_camera:
                continue
            by_node[node] = by_node.get(node, 0.0) + series["value"]
            if series["labels"]["category"] == "processing":
                processing += series["value"]
    errors = [
        f"{camera}: energy counters sum to {by_node.get(camera, 0.0)!r}, "
        f"battery paid {paid!r}"
        for camera, paid in sorted(battery_by_camera.items())
        if not _close(by_node.get(camera, 0.0), paid)
    ]
    if not processing > 0:
        errors.append("no processing energy recorded")
    return errors


def _check_stream(path: Path, spec: ChaosSpec) -> list[str]:
    ticks = max(1, int(spec.horizon_s / spec.seconds_per_frame))
    try:
        records = read_stream_records(path)
        check_stream_contiguous(records)
    except (OSError, ValueError) as exc:
        return [f"telemetry stream: {exc}"]
    if len(records) != ticks:
        return [f"telemetry stream has {len(records)} records, want {ticks}"]
    return []


def _check_checkpoint(directory: Path, result) -> list[str]:
    path = directory / "checkpoint.json"
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"checkpoint: {exc}"]
    state = document.get("state", {})
    errors = []
    if document.get("kind") != "chaos":
        errors.append(f"checkpoint kind is {document.get('kind')!r}")
    if not state.get("sim_now", math.inf) <= result.simulated_s:
        errors.append("checkpoint is ahead of the finished run")
    for camera, paid in state.get("battery_by_camera", {}).items():
        if paid > result.battery_by_camera.get(camera, -1.0) + 1e-9:
            errors.append(f"checkpoint battery for {camera} exceeds the final")
    return errors


def make_workload(name: str, checkout: Path):
    """The named workload."""
    if name == "paper3":
        # The paper's protocol on its three datasets, full test window.
        return SpecWorkload(
            seeds_per_cycle=8,
            specs=[
                {"dataset_number": number, "policy": "full", "budget": BUDGET}
                for number in (1, 2, 3)
            ],
        )
    if name == "flat100":
        # One assessment round: flat greedy selection over 100 cameras.
        return SpecWorkload(
            seeds_per_cycle=3,
            specs=[
                {
                    "dataset_number": 1,
                    "policy": "subset",
                    "budget": BUDGET,
                    "fleet_cameras": 100,
                    "start": 1000,
                    "end": 1100,
                }
            ],
        )
    if name == "cells200":
        # Two assessment rounds (recalibration every 500 frames), so
        # the budget coordinator re-scales cells once.
        return SpecWorkload(
            seeds_per_cycle=2,
            specs=[
                {
                    "dataset_number": 1,
                    "policy": "cell",
                    "budget": BUDGET,
                    "fleet_cameras": 200,
                    "cells": 20,
                    "start": 1000,
                    "end": 1550,
                }
            ],
        )
    if name == "chaos_durable":
        return ChaosWorkload(checkout / ".perfbench_tmp", seeds_per_cycle=8)
    raise ValueError(
        f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}"
    )


WORKLOADS = ("paper3", "flat100", "cells200", "chaos_durable")
