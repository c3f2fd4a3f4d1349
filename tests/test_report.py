"""Tests for the report generator and ASCII charts."""

import pytest

from repro.experiments.report import (
    ALL_SECTIONS,
    ascii_bar_chart,
    generate_report,
)


class TestAsciiBarChart:
    def test_renders_bars(self):
        chart = ascii_bar_chart(["a", "bb"], [10.0, 5.0], width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty_input(self):
        assert ascii_bar_chart([], []) == "(no data)"

    def test_zero_values_safe(self):
        chart = ascii_bar_chart(["x"], [0.0])
        assert "x" in chart

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])

    def test_unit_appended(self):
        chart = ascii_bar_chart(["a"], [3.0], unit=" J")
        assert "3 J" in chart


class TestGenerateReport:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            generate_report(sections=("figX",))

    def test_all_sections_known(self):
        assert set(ALL_SECTIONS) == {
            "table2", "table3", "table4", "table5",
            "fig3", "fig4", "fig5a", "fig5b", "fig6",
        }

    def test_tables_section_renders(self, runner1):
        report = generate_report(sections=("table2",))
        assert "Table II" in report
        assert "HOG" in report and "LSVM" in report

    def test_fig5a_section_renders(self, runner1):
        # Dataset #1's trained context is cached by the engine after
        # the first get_engine call, so this only trains once.
        report = generate_report(sections=("fig5a",))
        assert "Fig. 5a" in report
        assert "all_best" in report
        assert "#" in report  # the bar chart
