"""Figs. 5a/5b: EECS versus the all-best baseline on dataset #1.

Three operating modes are compared under two per-frame energy budget
regimes:

* budget >= 1.08 J (Fig. 5a): HOG — the most accurate deployable
  algorithm — is affordable.  All-best runs 4xHOG; EECS first drops
  to ~3 cameras (middle bars) and then downgrades some cameras to ACF
  (right bars), cutting energy to ~59% of the baseline at ~86% of its
  detection count in the paper.
* budget in [0.07, 1.08) (Fig. 5b): only ACF is affordable; EECS can
  only reduce the camera subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.spec import DeploymentSpec

#: Per-frame budgets matching the paper's two regimes (dataset #1:
#: HOG costs 1.08 J/frame, C4 4.92, LSVM 3.31, ACF 0.07).
HIGH_BUDGET = 2.0
LOW_BUDGET = 0.5

MODES = ("all_best", "subset", "full")


@dataclass(frozen=True)
class ModeResult:
    """One bar of Fig. 5: a mode's accuracy and energy."""

    mode: str
    humans_detected: int
    humans_present: int
    energy_joules: float
    cameras_per_round: list[int]

    @property
    def detection_rate(self) -> float:
        if self.humans_present == 0:
            return 0.0
        return self.humans_detected / self.humans_present


def run_modes(
    dataset_number: int = 1,
    budget: float = HIGH_BUDGET,
    engine: DeploymentEngine | None = None,
) -> dict[str, ModeResult]:
    """Run the three Fig. 5 modes under one budget."""
    engine = engine or DeploymentSpec(
        dataset_number=dataset_number
    ).build_engine()
    out = {}
    for mode in MODES:
        result: RunResult = engine.run(mode, budget=budget)
        out[mode] = ModeResult(
            mode=mode,
            humans_detected=result.humans_detected,
            humans_present=result.humans_present,
            energy_joules=result.energy_joules,
            cameras_per_round=[d.num_active for d in result.decisions],
        )
    return out


def energy_savings(results: dict[str, ModeResult]) -> dict[str, float]:
    """Energy of each mode relative to the all-best baseline."""
    baseline = results["all_best"].energy_joules
    if baseline <= 0:
        raise ValueError("baseline consumed no energy")
    return {
        mode: result.energy_joules / baseline
        for mode, result in results.items()
    }


def accuracy_retention(results: dict[str, ModeResult]) -> dict[str, float]:
    """Detected humans of each mode relative to the baseline."""
    baseline = results["all_best"].humans_detected
    if baseline <= 0:
        raise ValueError("baseline detected nothing")
    return {
        mode: result.humans_detected / baseline
        for mode, result in results.items()
    }
