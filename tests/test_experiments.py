"""Integration tests for the experiment drivers (small parameters).

These check the *shape* claims of each table/figure; the full-size
regenerations live in benchmarks/.
"""

import numpy as np
import pytest

from repro.experiments.fig3 import adaptive_vs_fixed
from repro.experiments.fig4 import standard_combinations, tradeoff_curve
from repro.experiments.fig5 import (
    accuracy_retention,
    energy_savings,
    run_modes,
)
from repro.experiments.table2_3_4 import algorithm_table, render_table
from repro.experiments.tables import format_table


class TestFormatTable:
    def test_renders_aligned_rows(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestAlgorithmTable:
    @pytest.fixture(scope="class")
    def train_rows(self, dataset1):
        return algorithm_table(1, camera_index=0, segment="train",
                               dataset=dataset1)

    def test_four_rows(self, train_rows):
        assert [r.algorithm for r in train_rows] == [
            "HOG", "ACF", "C4", "LSVM",
        ]

    def test_metrics_in_range(self, train_rows):
        for row in train_rows:
            assert 0.0 <= row.recall <= 1.0
            assert 0.0 <= row.precision <= 1.0
            assert row.energy_per_frame > 0
            assert row.time_per_frame > 0

    def test_table2_shape(self, train_rows):
        """Table II orderings: LSVM most accurate, ACF cheapest, LSVM
        slowest."""
        by_name = {r.algorithm: r for r in train_rows}
        assert by_name["LSVM"].f_score == max(r.f_score for r in train_rows)
        assert by_name["ACF"].energy_per_frame == min(
            r.energy_per_frame for r in train_rows
        )
        assert by_name["HOG"].f_score > by_name["ACF"].f_score

    def test_test_segment_reuses_thresholds(self, dataset1, train_rows):
        thresholds = {r.algorithm: r.threshold for r in train_rows}
        test_rows = algorithm_table(
            1, 0, "test", dataset=dataset1, train_thresholds=thresholds
        )
        for row in test_rows:
            assert row.threshold == thresholds[row.algorithm]

    def test_render(self, train_rows):
        text = render_table(train_rows, title="Table II")
        assert "Table II" in text
        assert "LSVM" in text

    def test_rejects_bad_segment(self, dataset1):
        with pytest.raises(ValueError):
            algorithm_table(1, 0, "validation", dataset=dataset1)


class TestFig3:
    @pytest.fixture(scope="class")
    def strategies(self):
        return {s.strategy: s for s in adaptive_vs_fixed()}

    def test_adaptive_beats_fixed(self, strategies):
        adaptive = strategies["adaptive"].f_score
        assert adaptive >= strategies["HOG"].f_score
        assert adaptive >= strategies["ACF"].f_score

    def test_adaptive_choices_match_paper(self, strategies):
        """HOG for dataset #1, ACF for dataset #2."""
        per_dataset = strategies["adaptive"].per_dataset
        assert per_dataset[1] == "HOG"
        assert per_dataset[2] == "ACF"

    def test_adaptive_improves_precision_and_recall_vs_hog(self, strategies):
        """The paper's headline for Fig. 3: both metrics improve
        simultaneously over fixed HOG."""
        adaptive, hog = strategies["adaptive"], strategies["HOG"]
        assert adaptive.precision > hog.precision
        assert adaptive.recall >= hog.recall - 0.05


class TestFig4:
    @pytest.fixture(scope="class")
    def points(self, runner1):
        return {p.label: p for p in tradeoff_curve(engine=runner1)}

    def test_all_combinations_present(self, points):
        assert set(points) == {
            "2HOG", "2ACF", "HOG+ACF", "4HOG", "4ACF", "2HOG+2ACF",
        }

    def test_energy_orderings(self, points):
        assert points["2ACF"].energy_joules < points["2HOG"].energy_joules
        assert points["4ACF"].energy_joules < points["4HOG"].energy_joules
        assert (
            points["2HOG+2ACF"].energy_joules
            < points["4HOG"].energy_joules
        )

    def test_mixed_saves_roughly_half(self, points):
        """Paper: 2HOG+2ACF consumes ~54% of 4HOG."""
        ratio = (
            points["2HOG+2ACF"].energy_joules
            / points["4HOG"].energy_joules
        )
        assert 0.4 < ratio < 0.7

    def test_mixed_accuracy_close_to_full(self, points):
        """Paper: 85% vs 92% of objects -> small relative gap."""
        gap = points["4HOG"].recall - points["2HOG+2ACF"].recall
        assert 0.0 <= gap < 0.15

    def test_four_cameras_beat_two(self, points):
        assert points["4HOG"].recall > points["2HOG"].recall

    def test_combinations_need_four_cameras(self):
        with pytest.raises(ValueError):
            standard_combinations(["a", "b"])


class TestFig5:
    @pytest.fixture(scope="class")
    def high_budget(self, runner1):
        return run_modes(dataset_number=1, budget=2.0, engine=runner1)

    def test_staircase(self, high_budget):
        """all_best > subset > full in energy."""
        assert (
            high_budget["full"].energy_joules
            <= high_budget["subset"].energy_joules + 1e-9
        )
        assert (
            high_budget["full"].energy_joules
            < high_budget["all_best"].energy_joules
        )

    def test_savings_and_retention(self, high_budget):
        savings = energy_savings(high_budget)
        retention = accuracy_retention(high_budget)
        assert savings["full"] < 0.9
        assert retention["full"] > 0.8

    def test_subset_uses_fewer_cameras(self, high_budget):
        rounds = high_budget["full"].cameras_per_round
        assert rounds and min(rounds) <= 3
