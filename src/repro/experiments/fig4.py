"""Fig. 4: accuracy versus energy for camera/algorithm combinations.

Processes dataset #1's test segment under six static configurations —
2HOG, 2ACF, HOG+ACF (two cameras) and 4HOG, 4ACF, 2HOG+2ACF (four
cameras) — and reports, for each, the fused recall (detected humans
over humans in the scene) and the total energy consumed.  The paper's
observation: 2HOG+2ACF consumes ~54% of 4HOG's energy while detecting
85% of the objects versus 92% — a ~7% accuracy hit for a ~2x saving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.spec import DeploymentSpec


@dataclass(frozen=True)
class TradeoffPoint:
    """One Fig. 4 configuration's outcome."""

    label: str
    assignment: dict[str, str]
    humans_detected: int
    humans_present: int
    recall: float
    energy_joules: float


def standard_combinations(camera_ids: list[str]) -> dict[str, dict[str, str]]:
    """The six configurations of Fig. 4 mapped onto real camera ids."""
    if len(camera_ids) < 4:
        raise ValueError("Fig. 4 needs four cameras")
    c1, c2, c3, c4 = camera_ids[:4]
    return {
        "2HOG": {c1: "HOG", c2: "HOG"},
        "2ACF": {c1: "ACF", c2: "ACF"},
        "HOG+ACF": {c1: "HOG", c2: "ACF"},
        "4HOG": {c1: "HOG", c2: "HOG", c3: "HOG", c4: "HOG"},
        "4ACF": {c1: "ACF", c2: "ACF", c3: "ACF", c4: "ACF"},
        "2HOG+2ACF": {c1: "HOG", c2: "HOG", c3: "ACF", c4: "ACF"},
    }


def tradeoff_curve(
    dataset_number: int = 1,
    engine: DeploymentEngine | None = None,
    combinations: dict[str, dict[str, str]] | None = None,
) -> list[TradeoffPoint]:
    """Run every configuration over the test segment."""
    engine = engine or DeploymentSpec(
        dataset_number=dataset_number
    ).build_engine()
    if combinations is None:
        combinations = standard_combinations(engine.dataset.camera_ids)
    points = []
    for label, assignment in combinations.items():
        result: RunResult = engine.run("fixed", assignment=assignment)
        points.append(
            TradeoffPoint(
                label=label,
                assignment=assignment,
                humans_detected=result.humans_detected,
                humans_present=result.humans_present,
                recall=result.detection_rate,
                energy_joules=result.energy_joules,
            )
        )
    return points
