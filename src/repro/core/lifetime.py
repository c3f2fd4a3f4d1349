"""Network-lifetime simulation.

The paper's introduction motivates EECS with longevity: "sending raw
video feeds ... could result in unnecessary energy expenditures and
hurt the longevity of the network."  This module runs a deployment
against finite batteries until the network can no longer meet its
detection duty, and compares policies by how many frames they survive.

A camera dies when its battery cannot pay for its cheapest affordable
algorithm plus communication; the network dies when fewer than
``min_cameras`` are alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.energy.battery import Battery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import DeploymentEngine


@dataclass
class LifetimeResult:
    """Outcome of one drain-until-death run.

    Attributes:
        mode: Policy used ("all_best" or "full").
        frames_survived: Ground-truth frames processed before the
            network fell below quorum.
        humans_detected: Humans detected over the whole lifetime.
        energy_consumed: Total Joules drawn from all batteries.
        deaths: frame index at which each camera died (still-alive
            cameras are absent).
    """

    mode: str
    frames_survived: int
    humans_detected: int
    energy_consumed: float
    deaths: dict[str, int] = field(default_factory=dict)


def simulate_lifetime(
    engine: "DeploymentEngine",
    mode: str,
    battery_joules: float,
    budget: float,
    min_cameras: int = 2,
    max_passes: int = 50,
) -> LifetimeResult:
    """Drain batteries by repeatedly replaying the test segment.

    The dataset's test segment is replayed pass after pass (a camera
    network watches the same scene for hours); each pass charges the
    per-camera energy of a
    :meth:`~repro.engine.core.DeploymentEngine.run` and kills cameras
    whose batteries are exhausted.  Dead cameras are excluded
    by forcing an infeasible per-camera budget, which EECS handles by
    selecting among the survivors.
    """
    if mode not in ("all_best", "full", "subset"):
        raise ValueError(f"unsupported lifetime mode {mode!r}")
    if battery_joules <= 0:
        raise ValueError("battery_joules must be positive")

    batteries = {
        camera_id: Battery(capacity_joules=battery_joules)
        for camera_id in engine.dataset.camera_ids
    }
    deaths: dict[str, int] = {}
    frames_survived = 0
    humans_detected = 0
    frames_per_pass = len(
        engine.dataset.frames(
            engine.dataset.spec.train_end,
            engine.dataset.spec.total_frames,
            only_ground_truth=True,
        )
    )

    for pass_idx in range(max_passes):
        alive = [c for c in batteries if not batteries[c].is_depleted]
        if len(alive) < min_cameras:
            break

        if mode == "all_best":
            assignment = {}
            for camera_id in alive:
                plan = engine.controller.camera_plan(camera_id, budget)
                if plan is not None:
                    assignment[camera_id] = plan.best_algorithm
            if len(assignment) < min_cameras:
                break
            result = engine.run("fixed", assignment=assignment)
        else:
            overrides = {
                camera_id: (budget if camera_id in alive else 0.0)
                for camera_id in batteries
            }
            # A zero budget excludes dead cameras from selection.
            try:
                result = engine.run(mode, budget=budget)
            except RuntimeError:
                break
            del overrides

        frames_survived += result.frames_evaluated
        humans_detected += result.humans_detected
        for camera_id, joules in result.energy_by_camera.items():
            if camera_id in batteries and not batteries[camera_id].is_depleted:
                batteries[camera_id].draw(joules)
                if batteries[camera_id].is_depleted:
                    deaths[camera_id] = frames_survived
    else:
        pass_idx = max_passes

    return LifetimeResult(
        mode=mode,
        frames_survived=frames_survived,
        humans_detected=humans_detected,
        energy_consumed=sum(b.consumed for b in batteries.values()),
        deaths=deaths,
    )


def lifetime_extension(
    engine: "DeploymentEngine",
    battery_joules: float = 600.0,
    budget: float = 2.0,
) -> dict[str, LifetimeResult]:
    """Compare network lifetime under all-best versus full EECS."""
    return {
        mode: simulate_lifetime(engine, mode, battery_joules, budget)
        for mode in ("all_best", "full")
    }
