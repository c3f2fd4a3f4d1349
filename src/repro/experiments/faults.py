"""Chaos experiment: a networked deployment under injected faults.

A chaos run is a ``DeploymentSpec(network=True, ...)``: the same
trained engine deployed over the discrete-event network, where a
:class:`~repro.faults.plan.FaultPlan` breaks things — lossy links
force retransmissions (paid in Joules), crashed cameras go silent
until the controller declares them dead and re-selects over the
survivors.  Everything is seeded, so a chaos run is reproducible from
its spec alone.

The headline metric is *accuracy retention*: the faulty run's
operational detection rate divided by the zero-fault run's, on the
same frames and seed.  The paper's claim that selection keeps accuracy
near the γ-scaled baseline only means something in deployment if it
also survives the failure modes its battery-and-wireless premise
implies.

:class:`ChaosSpec` and :func:`run_chaos` survive only as the spelling
``perfbench/workloads.py`` still imports; nothing else may use them
(``tests/test_layer_contract.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar

from repro.checkpoint.hooks import RunCheckpointer
from repro.datasets.synthetic import DATASET_SPECS
from repro.engine.core import DeploymentEngine
from repro.engine.environment import NetworkOutcome
from repro.engine.spec import DeploymentSpec
from repro.resilience.ladder import ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.hooks import CheckpointConfig
    from repro.telemetry.core import Telemetry


def accuracy_retention(
    faulty: NetworkOutcome, baseline: NetworkOutcome
) -> float:
    """Fraction of the zero-fault detection rate retained under faults."""
    if baseline.detection_rate == 0.0:
        return 0.0
    return faulty.detection_rate / baseline.detection_rate


def chaos_sweep(
    engine: DeploymentEngine,
    base: DeploymentSpec,
    loss_rates: tuple[float, ...] = (0.0, 0.2),
    crash_counts: tuple[int, ...] = (0, 1),
) -> list[tuple[DeploymentSpec, NetworkOutcome]]:
    """Loss-rate x crash-count grid over the networked ``base`` spec,
    sharing one trained engine."""
    results = []
    for loss_rate in loss_rates:
        for crash_count in crash_counts:
            spec = replace(base, loss_rate=loss_rate, crash_count=crash_count)
            results.append((spec, spec.execute(engine=engine)))
    return results


@dataclass(frozen=True)
class ChaosSpec:
    """perfbench's spelling of a networked :class:`DeploymentSpec`:
    ``num_frames`` ground-truth frames from the start of the dataset's
    test segment."""

    dataset_number: int = 1
    loss_rate: float = 0.0
    crash_count: int = 0
    sensor_noise: float = 0.0
    fault_camera_count: int = 1
    num_frames: int = 18
    budget: float = 2.0
    seed: int = 7
    resilience: ResilienceConfig | None = None

    seconds_per_frame: ClassVar[float] = 2.0

    @property
    def horizon_s(self) -> float:
        """Simulated duration: one tick per frame plus start-up slack."""
        return self.seconds_per_frame * (self.num_frames + 4)

    def to_spec(self) -> DeploymentSpec:
        dataset = DATASET_SPECS[self.dataset_number]
        return DeploymentSpec(
            dataset_number=self.dataset_number,
            network=True,
            start=dataset.train_end,
            end=dataset.train_end + self.num_frames * dataset.gt_every,
            budget=self.budget,
            seed=self.seed,
            resilience=self.resilience,
            loss_rate=self.loss_rate,
            crash_count=self.crash_count,
            sensor_noise=self.sensor_noise,
            fault_camera_count=self.fault_camera_count,
        )


def run_chaos(
    spec: ChaosSpec,
    engine: DeploymentEngine,
    telemetry: "Telemetry | None" = None,
    checkpoint: "CheckpointConfig | None" = None,
) -> NetworkOutcome:
    """``spec.to_spec().execute(...)``, with perfbench's arguments."""
    return spec.to_spec().execute(
        engine=engine,
        telemetry=telemetry,
        checkpointer=RunCheckpointer(checkpoint) if checkpoint else None,
    )
