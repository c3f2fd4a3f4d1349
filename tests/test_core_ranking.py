"""Tests for algorithm rank ordering and budget filtering."""

import pytest

from repro.core.calibration import TrainingItem
from repro.core.ranking import (
    affordable_profiles,
    best_affordable,
    efficiency_candidates,
)
from tests.test_core_calibration import make_profile


@pytest.fixture()
def item():
    """A training item mirroring dataset #1's Table II shape."""
    return TrainingItem(
        name="T1",
        profiles={
            "HOG": make_profile("HOG", f=0.66, energy=1.08),
            "ACF": make_profile("ACF", f=0.505, energy=0.07),
            "C4": make_profile("C4", f=0.63, energy=4.92),
            "LSVM": make_profile("LSVM", f=0.89, energy=3.31),
        },
    )


class TestAffordable:
    def test_high_budget_includes_all(self, item):
        assert len(affordable_profiles(item, budget=10.0)) == 4

    def test_low_budget_filters(self, item):
        names = {p.algorithm for p in affordable_profiles(item, budget=2.0)}
        assert names == {"HOG", "ACF"}

    def test_communication_cost_counts(self, item):
        names = {
            p.algorithm
            for p in affordable_profiles(
                item, budget=1.1, communication_cost=0.01
            )
        }
        assert names == {"HOG", "ACF"}
        names = {
            p.algorithm
            for p in affordable_profiles(
                item, budget=1.1, communication_cost=0.5
            )
        }
        assert names == {"ACF"}


class TestBestAffordable:
    def test_picks_most_accurate_within_budget(self, item):
        # Budget 2: LSVM (best overall) unaffordable -> HOG.
        assert best_affordable(item, budget=2.0).algorithm == "HOG"

    def test_high_budget_picks_lsvm(self, item):
        assert best_affordable(item, budget=10.0).algorithm == "LSVM"

    def test_tiny_budget_none(self, item):
        assert best_affordable(item, budget=0.01) is None


class TestEfficiencyCandidates:
    def test_acf_is_candidate_against_hog(self, item):
        """ACF: 0.505/0.07 = 7.2 f/J >> HOG's 0.61 f/J."""
        current = item.profile("HOG")
        candidates = efficiency_candidates(item, current, budget=2.0)
        assert [c.algorithm for c in candidates] == ["ACF"]

    def test_expensive_accurate_not_candidate(self, item):
        """LSVM is more accurate but less efficient than ACF."""
        current = item.profile("ACF")
        assert efficiency_candidates(item, current, budget=10.0) == []

    def test_candidates_must_fit_budget(self, item):
        current = item.profile("HOG")
        candidates = efficiency_candidates(item, current, budget=0.05)
        assert candidates == []

    def test_candidates_must_save_energy(self, item):
        """A more efficient but MORE expensive algorithm is excluded."""
        current = item.profile("ACF")
        candidates = efficiency_candidates(item, current, budget=10.0)
        for c in candidates:
            assert c.energy_per_frame < current.energy_per_frame

    def test_sorted_cheapest_first(self):
        item = TrainingItem(
            name="T",
            profiles={
                "A": make_profile("A", f=0.9, energy=4.0),
                "B": make_profile("B", f=0.6, energy=1.0),
                "C": make_profile("C", f=0.5, energy=0.5),
            },
        )
        candidates = efficiency_candidates(
            item, item.profile("A"), budget=10.0
        )
        energies = [c.energy_per_frame for c in candidates]
        assert energies == sorted(energies)
