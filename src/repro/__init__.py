"""repro: a reproduction of "Energy Efficient Object Detection in
Camera Sensor Networks" (EECS, ICDCS 2017).

The package implements the paper's coordination framework — GFK
domain-adaptation algorithm ranking, greedy camera-subset selection,
energy-aware algorithm downgrade, cross-camera re-identification and
Eq.-6 probability fusion — together with every substrate it needs:
a synthetic multi-camera pedestrian world, calibrated detector
simulations, from-scratch vision features (HOG / keypoints / BoW),
multi-view geometry, energy models fitted to the paper's smartphone
measurements, and a discrete-event sensor network.

Quickstart — a :class:`~repro.engine.spec.DeploymentSpec` describes
one run and builds the :class:`~repro.engine.core.DeploymentEngine`
that executes it (offline training included)::

    from repro.engine import DeploymentSpec

    result = DeploymentSpec(dataset_number=1, budget=2.0).execute()
    print(result.humans_detected, result.energy_joules)

For several runs on one trained dataset, keep the engine::

    from repro.engine import DeploymentContext, DeploymentEngine
    from repro.datasets import make_dataset

    engine = DeploymentEngine(DeploymentContext.build(make_dataset(1)))
    for policy in ("all_best", "subset", "full"):
        print(policy, engine.run(policy, budget=2.0).energy_joules)
"""

from repro.core.config import EECSConfig
from repro.core.controller import EECSController, SelectionDecision
from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.spec import DeploymentSpec
from repro.datasets.synthetic import SyntheticDataset, make_dataset

__version__ = "1.0.0"

__all__ = [
    "EECSConfig",
    "EECSController",
    "SelectionDecision",
    "DeploymentEngine",
    "DeploymentSpec",
    "RunResult",
    "SyntheticDataset",
    "make_dataset",
    "__version__",
]
