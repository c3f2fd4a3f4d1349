"""Algorithm rank ordering per camera (Section IV-B.2).

Once an incoming feed is matched to its closest training item, the
item's offline profiles transfer: the ranked algorithm list, the
f_score-maximising thresholds and the probability calibrators are all
taken from the matched item.  This module provides the budget-filtered
selection helpers the controller uses.
"""

from __future__ import annotations

from repro.core.calibration import AlgorithmProfile, TrainingItem


def affordable_profiles(
    item: TrainingItem,
    budget: float,
    communication_cost: float = 0.0,
) -> list[AlgorithmProfile]:
    """Profiles satisfying the energy constraint ``c(A) + C <= B``."""
    return [
        profile
        for profile in item.profiles.values()
        if profile.energy_per_frame + communication_cost <= budget
    ]


def best_affordable(
    item: TrainingItem,
    budget: float,
    communication_cost: float = 0.0,
) -> AlgorithmProfile | None:
    """The most accurate algorithm within budget, ``A*`` of Section IV-A.

    Returns ``None`` when no algorithm fits the budget (the camera
    cannot participate).
    """
    candidates = affordable_profiles(item, budget, communication_cost)
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.f_score)


def efficiency_candidates(
    item: TrainingItem,
    current: AlgorithmProfile,
    budget: float,
    communication_cost: float = 0.0,
) -> list[AlgorithmProfile]:
    """Cheaper alternatives worth exploring during downgrade.

    Section IV-B.4: "EECS only pays attention to algorithms that have
    higher f_score/energy values compared to the most accurate
    algorithm."  Candidates must also fit the budget and actually
    save energy; they are returned cheapest-first so the greedy
    downgrade tries the biggest saving first.
    """
    candidates = [
        profile
        for profile in affordable_profiles(item, budget, communication_cost)
        if profile.algorithm != current.algorithm
        and profile.efficiency > current.efficiency
        and profile.energy_per_frame < current.energy_per_frame
    ]
    return sorted(candidates, key=lambda p: p.energy_per_frame)
