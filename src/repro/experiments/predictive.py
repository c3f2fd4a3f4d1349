"""Predictive wake-up lifetime experiment: sleep to live longer.

EECS extends lifetime by operating a subset, but it still *assesses*
every camera every round, and on a dense multi-view deployment that
standing assessment bill drains all batteries in lockstep — the whole
network dies on the same pass.  The ``predictive`` policy rations a
rotating sleep schedule across the most redundant views, so the same
scene coverage costs fewer camera-rounds of assessment.

This module measures that trade on the deployment where it is
honest: ``make_scaled_dataset(8)`` rings eight cameras around one
scene (true 8-view redundancy — a tiled fleet would be two
independent 4-view scenes and overstate the loss).  Both policies run
the identical window on the identical trained context; lifetime then
follows analytically from each run's per-camera energy draw, because
every replayed pass of the same window draws the same Joules (the
same model :func:`repro.core.lifetime.simulate_lifetime` executes by
brute force — dead cameras stop drawing but passes are otherwise
identical).

The headline ratios — detection retention and lifetime extension of
``predictive`` over ``subset`` — are pinned in ``BENCH_predictive.json``
and guarded by ``benchmarks/test_bench_predictive.py`` and the
``predictive-smoke`` CI job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import EECSConfig
from repro.datasets.synthetic import make_scaled_dataset
from repro.engine import DeploymentContext, DeploymentEngine
from repro.engine.predictive import PredictivePolicy
from repro.predictive import PredictiveConfig

#: The validated bench operating point (see EXPERIMENTS.md): a high
#: wake threshold makes every camera a sleep candidate every round, so
#: the ration cap + probe rotation fully governs who sleeps — the
#: regime where redundancy, not scene emptiness, pays for lifetime.
BENCH_WAKE = PredictiveConfig(
    wake_threshold=9.0,
    predictor_warmup=2,
    probe_every=4,
    max_sleepers=2,
)
BENCH_CAMERAS = 8
BENCH_BUDGET = 2.0
BENCH_START = 1000
BENCH_END = 2000
BENCH_BATTERY_JOULES = 600.0
#: Short rounds (8 in the window) so warmup, probing and rationing all
#: cycle several times inside one measured pass.
BENCH_CONFIG = EECSConfig(assessment_period=75, recalibration_interval=125)


@dataclass(frozen=True)
class PolicyLifetime:
    """One policy's detection and longevity numbers.

    Attributes:
        policy: Coordination policy name.
        humans_detected / humans_present: Detection tally of one pass
            over the measured window.
        energy_joules: Total Joules of that pass.
        lifetime_passes: Replays of the window until fewer than
            ``min_cameras`` batteries survive.
    """

    policy: str
    humans_detected: int
    humans_present: int
    energy_joules: float
    lifetime_passes: int

    @property
    def detection_rate(self) -> float:
        if self.humans_present == 0:
            return 0.0
        return self.humans_detected / self.humans_present


@dataclass(frozen=True)
class PredictiveLifetimeReport:
    """The headline comparison: ``predictive`` vs ``subset``.

    ``detection_retention`` is predictive's detection rate over
    subset's (1.0 = no loss); ``lifetime_extension`` is the ratio of
    analytic lifetimes (how many more times the network can watch the
    same window before falling below quorum).
    """

    subset: PolicyLifetime
    predictive: PolicyLifetime

    @property
    def detection_retention(self) -> float:
        if self.subset.detection_rate == 0.0:
            return 0.0
        return self.predictive.detection_rate / self.subset.detection_rate

    @property
    def lifetime_extension(self) -> float:
        if self.subset.lifetime_passes == 0:
            return 0.0
        return self.predictive.lifetime_passes / self.subset.lifetime_passes


def analytic_lifetime_passes(
    energy_by_camera: dict[str, float],
    battery_joules: float,
    min_cameras: int = 2,
) -> int:
    """Passes of an identical window until quorum is lost.

    A camera participating in a pass draws its full per-pass cost
    (matching :func:`repro.core.lifetime.simulate_lifetime`, which
    draws and then marks the battery depleted), so a camera with draw
    ``d`` participates in ``ceil(battery / d)`` passes.  The network
    survives as long as ``min_cameras`` cameras still participate —
    the ``min_cameras``-th largest per-camera pass count.
    """
    if battery_joules <= 0:
        raise ValueError("battery_joules must be positive")
    if len(energy_by_camera) < min_cameras:
        return 0
    survivable = sorted(
        (
            math.ceil(battery_joules / draw) if draw > 0 else math.inf
            for draw in energy_by_camera.values()
        ),
        reverse=True,
    )
    passes = survivable[min_cameras - 1]
    return int(passes) if math.isfinite(passes) else 0


def predictive_context(
    num_cameras: int = BENCH_CAMERAS,
    config: EECSConfig = BENCH_CONFIG,
    train_seed: int = 2017,
) -> DeploymentContext:
    """The high-redundancy substrate: N cameras ringing one scene."""
    import numpy as np

    return DeploymentContext.build(
        make_scaled_dataset(num_cameras),
        config=config,
        rng=np.random.default_rng(train_seed),
    )


def _run_policy(
    context: DeploymentContext,
    policy,
    name: str,
    budget: float,
    start: int,
    end: int,
    battery_joules: float,
    min_cameras: int,
    seed: int,
) -> PolicyLifetime:
    engine = DeploymentEngine(context, seed=seed)
    result = engine.run(policy, budget=budget, start=start, end=end)
    return PolicyLifetime(
        policy=name,
        humans_detected=result.humans_detected,
        humans_present=result.humans_present,
        energy_joules=result.energy_joules,
        lifetime_passes=analytic_lifetime_passes(
            result.energy_by_camera, battery_joules, min_cameras
        ),
    )


def compare_predictive_lifetime(
    context: DeploymentContext | None = None,
    wake: PredictiveConfig = BENCH_WAKE,
    budget: float = BENCH_BUDGET,
    start: int = BENCH_START,
    end: int = BENCH_END,
    battery_joules: float = BENCH_BATTERY_JOULES,
    min_cameras: int = 2,
    seed: int = 2017,
) -> PredictiveLifetimeReport:
    """Run both policies on one substrate and compare their lifetimes."""
    if context is None:
        context = predictive_context()
    subset = _run_policy(
        context, "subset", "subset", budget, start, end,
        battery_joules, min_cameras, seed,
    )
    predictive = _run_policy(
        context, PredictivePolicy(wake), "predictive", budget, start,
        end, battery_joules, min_cameras, seed,
    )
    return PredictiveLifetimeReport(subset=subset, predictive=predictive)
