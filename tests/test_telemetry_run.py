"""End-to-end telemetry: instrumented runs, dump files, and the CLI.

The two regression tests at the top are the PR's contract: threading a
``Telemetry`` through the engine or the chaos harness must not change
a single simulation output — instrumentation reads the run, it never
steers it.
"""

import json

import pytest

from repro.cli import main
from repro.engine import DeploymentEngine
from repro.telemetry import Telemetry
from repro.telemetry.schema import (
    validate_events_file,
    validate_metrics_file,
    validate_trace_file,
)
from tests.golden_utils import network_spec

SPEC = network_spec(10, loss_rate=0.2, crash_count=1)


def _series_names(telemetry):
    return {m["name"] for m in telemetry.registry.snapshot()["metrics"]}


class TestTelemetryIsInvisibleToTheSimulation:
    def test_runner_outputs_bit_identical(self, runner1):
        plain = DeploymentEngine(runner1.context)
        instrumented = DeploymentEngine(
            runner1.context, telemetry=Telemetry(run_id="reg")
        )
        a = plain.run("full", budget=2.0, start=1000, end=1400)
        b = instrumented.run("full", budget=2.0, start=1000, end=1400)
        assert vars(a) == vars(b)

    def test_round_boundary_spans(self, runner1, tmp_path):
        """The shared round boundary traces its own bookkeeping: one
        ``telemetry.flush`` span per round and one ``checkpoint.save``
        span per snapshot written, without changing the run."""
        from repro.checkpoint import CheckpointConfig, RunCheckpointer

        telemetry = Telemetry(run_id="boundary")
        engine = DeploymentEngine(runner1.context, telemetry=telemetry)
        traced = engine.run(
            "full",
            budget=2.0,
            start=1000,
            end=2500,
            checkpointer=RunCheckpointer(
                CheckpointConfig(directory=tmp_path, every=2)
            ),
        )
        plain = DeploymentEngine(runner1.context).run(
            "full", budget=2.0, start=1000, end=2500
        )
        assert vars(traced) == vars(plain)
        spans = telemetry.tracer.spans
        run = next(s for s in spans if s.name == "run")
        flushes = [s for s in spans if s.name == "telemetry.flush"]
        saves = [s for s in spans if s.name == "checkpoint.save"]
        rounds = len(flushes)
        assert rounds >= 3
        assert len(saves) == sum(
            1 for done in range(1, rounds) if done % 2 == 0
        )
        assert all(s.parent_id == run.span_id for s in flushes + saves)
        assert all(s.end_s is not None for s in flushes + saves)

    def test_chaos_outputs_bit_identical(self, runner1):
        plain = SPEC.execute(engine=runner1)
        faulty = SPEC.execute(
            engine=runner1, telemetry=Telemetry(run_id="reg")
        )
        assert plain.humans_detected == faulty.humans_detected
        assert plain.humans_present == faulty.humans_present
        assert plain.delivered_messages == faulty.delivered_messages
        assert plain.dropped_messages == faulty.dropped_messages
        assert plain.retransmissions == faulty.retransmissions
        assert plain.battery_by_camera == faulty.battery_by_camera
        assert plain.final_assignment == faulty.final_assignment
        assert plain.fault_kinds() == faulty.fault_kinds()


class TestChaosTelemetrySurface:
    @pytest.fixture(scope="class")
    def chaos_telemetry(self, runner1):
        telemetry = Telemetry(run_id="chaos-test")
        SPEC.execute(engine=runner1, telemetry=telemetry)
        return telemetry

    def test_emits_at_least_ten_distinct_series(self, chaos_telemetry):
        assert chaos_telemetry.registry.series_count() >= 10
        assert len(_series_names(chaos_telemetry)) >= 10

    def test_covers_energy_network_and_controller(self, chaos_telemetry):
        names = _series_names(chaos_telemetry)
        assert {
            "energy_joules_total",
            "battery_fraction_remaining",
            "network_messages_sent_total",
            "network_messages_dropped_total",
            "network_messages_delivered_total",
            "network_retransmissions_total",
            "controller_selections_total",
            "controller_assignments_total",
            "detection_frames_total",
            "run_rounds_total",
        } <= names

    def test_energy_split_by_category(self, chaos_telemetry):
        snap = chaos_telemetry.registry.snapshot()
        (energy,) = [
            m for m in snap["metrics"] if m["name"] == "energy_joules_total"
        ]
        categories = {
            s["labels"]["category"] for s in energy["series"]
        }
        # A lossy run pays for processing, first sends, and resends.
        assert {"processing", "communication", "retransmission"} <= categories

    def test_span_tree_has_run_round_phase_nesting(self, chaos_telemetry):
        spans = {s.span_id: s for s in chaos_telemetry.tracer.spans}
        by_name = {}
        for span in spans.values():
            by_name.setdefault(span.name, []).append(span)
        run = by_name["run"][0]
        rnd = by_name["round"][0]
        assert rnd.parent_id == run.span_id
        for phase in ("assessment", "selection", "operation"):
            assert any(
                s.parent_id == rnd.span_id for s in by_name[phase]
            ), phase
        assert any(
            spans[s.parent_id].name in ("assessment", "operation")
            for s in by_name["camera_op"]
        )

    def test_events_mirror_the_fault_log(self, chaos_telemetry):
        kinds = {e.kind for e in chaos_telemetry.events.events}
        assert "node_crash" in kinds
        assert "controller_decision" in kinds

    def test_dump_files_validate_against_schema(
        self, chaos_telemetry, tmp_path
    ):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        events = tmp_path / "events.jsonl"
        chaos_telemetry.write_metrics(metrics)
        chaos_telemetry.write_trace(trace)
        chaos_telemetry.write_events(events)
        assert validate_metrics_file(metrics) >= 10
        assert validate_trace_file(trace) > 0
        assert validate_events_file(events) > 0
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro.metrics.v1"

    def test_prometheus_text_exposition(self, chaos_telemetry, tmp_path):
        path = tmp_path / "metrics.prom"
        chaos_telemetry.write_metrics(path)
        text = path.read_text()
        assert "# TYPE energy_joules_total counter" in text
        assert 'node="' in text


class TestTelemetryReportCli:
    @pytest.fixture(scope="class")
    def dumps(self, runner1, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("telemetry")
        telemetry = Telemetry(run_id="cli-test")
        SPEC.execute(engine=runner1, telemetry=telemetry)
        paths = {
            "metrics": tmp / "m.json",
            "trace": tmp / "t.jsonl",
            "events": tmp / "e.jsonl",
        }
        telemetry.write_metrics(paths["metrics"])
        telemetry.write_trace(paths["trace"])
        telemetry.write_events(paths["events"])
        return paths

    def test_renders_all_three_sections(self, dumps, capsys):
        code = main([
            "telemetry-report",
            "--metrics", str(dumps["metrics"]),
            "--trace", str(dumps["trace"]),
            "--events", str(dumps["events"]),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "METRICS" in out
        assert "TRACE" in out
        assert "EVENTS" in out
        assert "energy_joules_total" in out
        assert "camera_op" in out

    def test_requires_at_least_one_input(self, capsys):
        assert main(["telemetry-report"]) == 2

    def test_chaos_cli_writes_validating_dumps(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        events = tmp_path / "e.jsonl"
        code = main([
            "chaos", "--loss-rate", "0.2", "--crash", "1",
            "--frames", "6",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
            "--events-out", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "metric series" in out
        assert validate_metrics_file(metrics) >= 10
        assert validate_trace_file(trace) > 0
        assert validate_events_file(events) > 0
        run_ids = {
            json.loads(line)["run_id"]
            for line in trace.read_text().splitlines()
        }
        assert run_ids == {"chaos-7"}
