"""The offline analysis layer: span profiler and regression differ."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs import (
    DiffThresholds,
    critical_paths,
    diff_runs,
    extract_indicators,
    fold_spans,
    has_regression,
    load_metrics,
    load_spans,
    render_diff,
    render_folded,
    render_profile,
)


def _span(span_id, name, start, duration, parent=None, **attributes):
    return {
        "schema": "repro.span.v1",
        "run_id": "t",
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start_s": start,
        "duration_s": duration,
        "attributes": attributes,
    }


#: run(10s) -> round#0(6s) -> detection(4s) -> score(1s)
#:                         -> selection(1s)
#:          -> round#1(3s) -> detection(2s)
SPANS = [
    _span(1, "run", 0.0, 10.0),
    _span(2, "round", 0.0, 6.0, parent=1, index=0),
    _span(3, "detection", 0.0, 4.0, parent=2),
    _span(4, "score", 0.0, 1.0, parent=3),
    _span(5, "selection", 4.0, 1.0, parent=2),
    _span(6, "round", 6.0, 3.0, parent=1, index=1),
    _span(7, "detection", 6.0, 2.0, parent=6),
]


def _metrics(energy=100.0, rounds=10.0, detected=20.0, present=25.0,
             retrans=5.0, trips=2.0):
    def scalar(name, value, kind="counter"):
        return {
            "name": name, "type": kind, "help": "", "labels": [],
            "series": [{"labels": {}, "value": value}],
        }

    return {
        "schema": "repro.metrics.v1",
        "metrics": [
            scalar("energy_joules_total", energy),
            scalar("run_rounds_total", rounds),
            scalar("run_humans_detected_total", detected),
            scalar("run_humans_present_total", present),
            scalar("network_retransmissions_total", retrans),
            scalar("breaker_open_total", trips),
        ],
    }


class TestFoldSpans:
    def test_self_vs_total(self):
        by_path = {e.path: e for e in fold_spans(SPANS)}
        run = by_path["run"]
        assert run.total_s == 10.0
        assert run.self_s == pytest.approx(1.0)  # 10 - (6 + 3)
        rounds = by_path["run;round"]
        assert rounds.calls == 2
        assert rounds.total_s == 9.0
        assert rounds.self_s == pytest.approx(2.0)  # (6-5) + (3-2)
        detection = by_path["run;round;detection"]
        assert detection.total_s == 6.0
        assert detection.self_s == pytest.approx(5.0)
        assert detection.mean_s == pytest.approx(3.0)
        # leaves keep all their time
        assert by_path["run;round;detection;score"].self_s == 1.0

    def test_sorted_by_self_time(self):
        entries = fold_spans(SPANS)
        self_times = [e.self_s for e in entries]
        assert self_times == sorted(self_times, reverse=True)

    def test_self_time_clamped_at_zero(self):
        spans = [
            _span(1, "parent", 0.0, 1.0),
            _span(2, "child", 0.0, 5.0, parent=1),
        ]
        by_path = {e.path: e for e in fold_spans(spans)}
        assert by_path["parent"].self_s == 0.0

    def test_render_folded_microseconds(self):
        lines = render_folded(fold_spans(SPANS)).splitlines()
        assert "run;round;detection 5000000" in lines
        assert "run;round;detection;score 1000000" in lines


class TestCriticalPaths:
    def test_walks_heaviest_child_to_leaf(self):
        paths = critical_paths(SPANS)
        assert len(paths) == 2
        first = paths[0]
        assert first.round_index == 0
        assert first.duration_s == 6.0
        assert [name for name, _ in first.steps] == ["detection", "score"]
        assert paths[1].steps == [("detection", 2.0)]

    def test_render_profile_table_and_truncation(self):
        report = render_profile(SPANS, limit=2)
        assert "7 spans" in report
        assert "(+3 more paths)" in report
        assert "Critical path per round:" in report
        assert "round 0: 6000.0ms" in report

    def test_render_profile_bounds_rounds_by_limit(self):
        """More rounds than ``limit``: only the slowest are listed,
        slowest first, and the rest are counted."""
        spans = [_span(1, "run", 0.0, 100.0)]
        for index, duration in enumerate([3.0, 9.0, 1.0, 7.0, 5.0]):
            spans.append(
                _span(2 + index, "round", float(index), duration,
                      parent=1, index=index)
            )
        lines = render_profile(spans, limit=2).splitlines()
        listed = lines[lines.index("Critical path per round:") + 1:]
        assert listed == [
            "  round 1: 9000.0ms",
            "  round 3: 7000.0ms",
            "(+3 more rounds)",
        ]


class TestLoadInputs:
    def test_load_spans_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"schema": "repro.event.v1"}) + "\n")
        with pytest.raises(ValueError, match="repro.span.v1"):
            load_spans(path)

    def test_load_metrics_snapshot(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_metrics(), indent=2))
        assert load_metrics(path)["schema"] == "repro.metrics.v1"

    def test_load_metrics_from_stream_takes_last_record(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for energy in (10.0, 100.0):
                f.write(json.dumps({
                    "schema": "repro.stream.v1", "seq": 0, "round": 0,
                    "metrics": _metrics(energy=energy),
                }) + "\n")
        payload = load_metrics(path)
        assert extract_indicators(payload)["energy_joules"] == 100.0

    def test_load_metrics_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "repro.span.v1"}))
        with pytest.raises(ValueError, match="expected"):
            load_metrics(path)


class TestExtractIndicators:
    def test_derived_ratios(self):
        indicators = extract_indicators(_metrics())
        assert indicators["energy_joules"] == 100.0
        assert indicators["energy_per_round"] == 10.0
        assert indicators["joules_per_detection"] == 5.0
        assert indicators["detection_rate"] == 0.8
        assert indicators["retransmissions"] == 5.0
        assert indicators["breaker_trips"] == 2.0

    def test_breaker_trips_fault_event_fallback(self):
        payload = _metrics(trips=0.0)
        payload["metrics"].append({
            "name": "fault_events_total", "type": "counter", "help": "",
            "labels": ["kind"],
            "series": [
                {"labels": {"kind": "breaker_open"}, "value": 3.0},
                {"labels": {"kind": "sensor_fault"}, "value": 7.0},
            ],
        })
        assert extract_indicators(payload)["breaker_trips"] == 3.0


class TestDiffRuns:
    def test_identical_runs_are_clean(self):
        diffs = diff_runs(_metrics(), copy.deepcopy(_metrics()))
        assert not has_regression(diffs)
        assert all(d.relative_change == 0.0 for d in diffs)

    def test_energy_regression_flagged(self):
        diffs = diff_runs(_metrics(), _metrics(energy=120.0))
        regressed = {d.name for d in diffs if d.regressed}
        # +20% energy moves all three energy indicators past 10%
        assert regressed == {
            "energy_joules", "energy_per_round", "joules_per_detection"
        }

    def test_improvement_never_flags(self):
        better = _metrics(energy=50.0, detected=25.0, retrans=0.0,
                          trips=0.0)
        assert not has_regression(diff_runs(_metrics(), better))

    def test_detection_rate_direction(self):
        worse = diff_runs(_metrics(), _metrics(detected=15.0))
        assert any(
            d.name == "detection_rate" and d.regressed for d in worse
        )

    def test_threshold_overrides(self):
        thresholds = DiffThresholds(
            default=0.5, overrides={"energy_joules": 0.05}
        )
        diffs = diff_runs(
            _metrics(), _metrics(energy=110.0), thresholds
        )
        regressed = {d.name for d in diffs if d.regressed}
        assert regressed == {"energy_joules"}

    def test_render_mentions_regressions(self):
        report = render_diff(diff_runs(_metrics(), _metrics(energy=200.0)))
        assert "REGRESSION" in report
        assert "regression(s)" in report


class TestObsCli:
    def test_profile_renders_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            "".join(json.dumps(s) + "\n" for s in SPANS)
        )
        assert main(["obs", "profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "run;round;detection" in out
        assert main(["obs", "profile", str(trace), "--folded"]) == 0
        assert "run;round;detection 5000000" in capsys.readouterr().out

    def test_profile_bad_input_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "profile", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_diff_exit_codes(self, capsys, tmp_path):
        baseline = tmp_path / "a.json"
        regressed = tmp_path / "b.json"
        baseline.write_text(json.dumps(_metrics()))
        # ≥10% worse joules-per-detection: energy up, detections down
        regressed.write_text(
            json.dumps(_metrics(energy=115.0, detected=19.0))
        )
        assert main(["obs", "diff", str(baseline), str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out
        assert main(["obs", "diff", str(baseline), str(regressed)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # a loose enough threshold lets the same pair pass
        assert main([
            "obs", "diff", str(baseline), str(regressed),
            "--threshold", "0.9",
        ]) == 0

    def test_diff_threshold_for_override(self, capsys, tmp_path):
        baseline = tmp_path / "a.json"
        candidate = tmp_path / "b.json"
        baseline.write_text(json.dumps(_metrics()))
        candidate.write_text(json.dumps(_metrics(energy=103.0)))
        args = ["obs", "diff", str(baseline), str(candidate)]
        assert main(args) == 0
        assert main(args + ["--threshold-for", "energy_joules=0.01"]) == 1
        capsys.readouterr()

    def test_diff_bad_threshold_for_exits_2(self, capsys, tmp_path):
        baseline = tmp_path / "a.json"
        baseline.write_text(json.dumps(_metrics()))
        assert main([
            "obs", "diff", str(baseline), str(baseline),
            "--threshold-for", "not_an_indicator=0.5",
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_diff_bad_input_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["obs", "diff", str(missing), str(missing)]) == 2
        assert "error" in capsys.readouterr().err
