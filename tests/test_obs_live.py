"""Live observability: sinks, alert rules, the HTTP exporter, and the
inertness guarantee (live streaming on ⇒ simulation output unchanged).
"""

import argparse
import json
import socket
import urllib.request

import pytest

from repro.engine.spec import DeploymentSpec
from repro.telemetry import (
    AlertEngine,
    AlertRule,
    AlertRuleError,
    JsonlStreamSink,
    MetricsRegistry,
    Telemetry,
    check_stream_contiguous,
    read_stream_records,
)
from repro.telemetry.exporter import METRICS_CONTENT_TYPE, MetricsExporter
from repro.telemetry.live import TelemetrySink, stream_line
from repro.telemetry.report import render_events_report
from repro.telemetry.schema import validate_stream_file

SPEC = DeploymentSpec(
    dataset_number=1,
    policy="full",
    budget=2.0,
    seed=2017,
    train_seed=2017,
    start=1000,
    end=1300,
)


class SubscriberSink(TelemetrySink):
    """In-process delivery to a callback, keeping the last
    ``keep_last`` records for the assertions to read."""

    def __init__(self, callback=None, keep_last=16):
        self.callback = callback
        self.keep_last = keep_last
        self.records = []
        self.emitted = 0

    def emit(self, line):
        record = json.loads(line)
        self.emitted += 1
        self.records.append(record)
        del self.records[: -self.keep_last]
        if self.callback is not None:
            self.callback(record)

    def on_resume(self, first_round):
        pass

    def close(self):
        pass

    @property
    def last(self):
        return self.records[-1] if self.records else None


def _line(seq, round_index):
    return stream_line(
        run_id="t",
        seq=seq,
        round_index=round_index,
        time_s=float(round_index),
        metrics_json=MetricsRegistry().to_json(),
        events=[],
        alerts=[],
    )


class TestSubscriberSink:
    def test_callback_and_ring_buffer(self):
        seen = []
        sink = SubscriberSink(callback=seen.append, keep_last=2)
        for i in range(5):
            sink.emit(_line(i, i))
        assert sink.emitted == 5
        assert len(seen) == 5
        assert [r["round"] for r in sink.records] == [3, 4]
        assert sink.last["round"] == 4


class TestJsonlStreamSink:
    def test_emit_and_read_back(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path)
        for i in range(3):
            sink.emit(_line(i, i))
        sink.close()
        records = read_stream_records(path)
        check_stream_contiguous(records)
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_rotation_preserves_order(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path, rotate_bytes=400)
        for i in range(8):
            sink.emit(_line(i, i))
        sink.close()
        assert (tmp_path / "s.jsonl.1").exists(), "no rotation happened"
        records = read_stream_records(path)
        check_stream_contiguous(records)
        assert len(records) == 8

    def test_torn_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path)
        for i in range(3):
            sink.emit(_line(i, i))
        sink.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"schema": "repro.stream.v1", "seq": 9, "rou')
        assert len(read_stream_records(path)) == 3

    def test_torn_line_mid_file_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"torn": \n{"seq": 0, "round": 0}\n')
        with pytest.raises(json.JSONDecodeError):
            read_stream_records(path)

    def test_fresh_run_truncates_stale_stream(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path, rotate_bytes=400)
        for i in range(8):
            sink.emit(_line(i, i))
        sink.close()
        fresh = JsonlStreamSink(path)
        fresh.close()
        assert read_stream_records(path) == []
        assert not (tmp_path / "s.jsonl.1").exists()

    def test_resume_keeps_existing_stream(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path)
        for i in range(4):
            sink.emit(_line(i, i))
        sink.close()
        resumed = JsonlStreamSink(path, resume=True)
        resumed.on_resume(2)
        assert [r["round"] for r in read_stream_records(path)] == [0, 1]
        for i in range(2, 4):
            resumed.emit(_line(i, i))
        resumed.close()
        check_stream_contiguous(read_stream_records(path))

    def test_on_resume_repairs_torn_line_and_rotation(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlStreamSink(path, rotate_bytes=400)
        for i in range(8):
            sink.emit(_line(i, i))
        sink.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"half": ')
        resumed = JsonlStreamSink(path, resume=True)
        resumed.on_resume(6)
        records = read_stream_records(path)
        assert [r["round"] for r in records] == [0, 1, 2, 3, 4, 5]
        assert not (tmp_path / "s.jsonl.1").exists()

    def test_bad_rotate_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlStreamSink(tmp_path / "s.jsonl", rotate_bytes=0)


class TestAlertRules:
    def test_parse_simple(self):
        rule = AlertRule.parse("battery_joules < 50")
        assert rule.metric == "battery_joules"
        assert rule.op == "<"
        assert rule.threshold == 50.0
        assert rule.labels == ()

    def test_parse_with_labels(self):
        rule = AlertRule.parse(
            'fault_events_total{kind=breaker_open} > 3'
        )
        assert rule.labels == (("kind", "breaker_open"),)

    @pytest.mark.parametrize(
        "bad", ["", "metric", "metric == 5", "5 < metric", "m < "]
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(AlertRuleError):
            AlertRule.parse(bad)

    def test_edge_triggered_fire_and_clear(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("battery", labels=("node",))
        engine = AlertEngine()
        engine.add("battery < 0.5")
        gauge.set(0.9, node="a")
        fired, cleared = engine.evaluate(registry)
        assert (fired, cleared) == ([], [])
        gauge.set(0.2, node="a")
        fired, cleared = engine.evaluate(registry)
        assert len(fired) == 1 and fired[0].series_labels == {"node": "a"}
        # still violating: no re-fire
        fired, cleared = engine.evaluate(registry)
        assert (fired, cleared) == ([], [])
        gauge.set(0.8, node="a")
        fired, cleared = engine.evaluate(registry)
        assert len(cleared) == 1 and not engine.active

    def test_label_selector_restricts_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("faults", labels=("kind",))
        counter.inc(5, kind="breaker_open")
        counter.inc(5, kind="heartbeat_miss")
        engine = AlertEngine()
        engine.add("faults{kind=breaker_open} > 3")
        fired, _ = engine.evaluate(registry)
        assert [s.series_labels for s in fired] == [
            {"kind": "breaker_open"}
        ]

    def test_histogram_rule_rejected_at_evaluation(self):
        registry = MetricsRegistry()
        registry.histogram("latency").observe(0.1)
        engine = AlertEngine()
        engine.add("latency > 1")
        with pytest.raises(AlertRuleError):
            engine.evaluate(registry)

    def test_snapshot_restore_suppresses_refire(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(9.0)
        engine = AlertEngine()
        engine.add("g > 5")
        fired, _ = engine.evaluate(registry)
        assert fired
        fresh = AlertEngine()
        fresh.add("g > 5")
        fresh.restore(engine.snapshot())
        fired, _ = fresh.evaluate(registry)
        assert fired == [] and len(fresh.active) == 1


class TestFlushRound:
    def test_inactive_without_sinks_or_rules(self):
        telemetry = Telemetry(run_id="t")
        assert not telemetry.live_enabled
        assert telemetry.flush_round(0, 2.0) is None
        # status still refreshed for /status
        assert telemetry.status_snapshot()["rounds_completed"] == 1

    def test_events_partitioned_between_flushes(self):
        telemetry = Telemetry(run_id="t")
        sink = telemetry.attach_sink(SubscriberSink())
        telemetry.event("first", time_s=1.0)
        telemetry.flush_round(0, 1.0)
        telemetry.event("second", time_s=2.0)
        telemetry.flush_round(1, 2.0)
        kinds = [
            [e["kind"] for e in r["events"]] for r in sink.records
        ]
        assert kinds == [["first"], ["second"]]

    def test_flushed_line_equals_dumps_of_rebuilt_record(self):
        """The line spliced from the cached metrics encoding is the
        record rebuilt from ``snapshot()``, encoded whole."""
        class LineSink(SubscriberSink):
            def __init__(self):
                self.lines = []

            def emit(self, line):
                self.lines.append(line)

        telemetry = Telemetry(run_id="t")
        sink = telemetry.attach_sink(LineSink())
        telemetry.add_alert_rule("g > 1")
        gauge = telemetry.registry.gauge("g", labels=("node",))
        for round_index, value in enumerate([0.5, 2.0, -0.0, 3.5]):
            gauge.set(value, node=f'cam "{round_index}"')
            telemetry.energy_counter().inc(
                value + 1.0, node="cé", category="processing"
            )
            telemetry.event("tick", time_s=float(round_index))
            cursor = len(telemetry.events.events)
            line = telemetry.flush_round(round_index, float(round_index))
            record = {
                "schema": "repro.stream.v1",
                "run_id": "t",
                "seq": round_index,
                "round": round_index,
                "time_s": float(round_index),
                "metrics": telemetry.registry.snapshot(),
                # Alert transitions land after the tick event.
                "events": [
                    e.to_record()
                    for e in telemetry.events.events[cursor - 1:]
                ],
                "alerts": [s.to_detail() for s in telemetry.alerts.active],
            }
            assert line == json.dumps(record, sort_keys=True) + "\n"
            assert sink.lines[-1] is line

    def test_alert_transitions_become_events(self):
        telemetry = Telemetry(run_id="t")
        sink = telemetry.attach_sink(SubscriberSink())
        telemetry.add_alert_rule("run_rounds_total > 1")
        rounds = telemetry.registry.counter("run_rounds_total")
        rounds.inc()
        telemetry.flush_round(0, 1.0)
        rounds.inc()
        telemetry.flush_round(1, 2.0)
        assert [e.kind for e in telemetry.events.events] == ["alert"]
        assert sink.records[1]["alerts"][0]["value"] == 2.0


class TestExporter:
    @pytest.fixture()
    def served(self):
        telemetry = Telemetry(run_id="exp")
        telemetry.registry.counter(
            "energy_joules_total", "Energy.", labels=("node",)
        ).inc(3.5, node="c0")
        exporter = MetricsExporter(telemetry, port=0)
        exporter.start()
        yield telemetry, exporter
        exporter.close()

    def _get(self, exporter, path):
        with urllib.request.urlopen(
            f"http://{exporter.host}:{exporter.port}{path}"
        ) as response:
            return response.status, response.headers, response.read()

    def test_metrics_page(self, served):
        _, exporter = served
        status, headers, body = self._get(exporter, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        text = body.decode()
        assert "# TYPE energy_joules_total counter" in text
        assert 'energy_joules_total{node="c0"} 3.5' in text

    def test_status_page(self, served):
        telemetry, exporter = served
        telemetry.flush_round(4, 10.0)
        _, _, body = self._get(exporter, "/status")
        page = json.loads(body)
        assert page["schema"] == "repro.status.v1"
        assert page["rounds_completed"] == 5
        assert page["run_id"] == "exp"

    def test_unknown_path_404(self, served):
        _, exporter = served
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(exporter, "/nope")
        assert err.value.code == 404

    def test_close_is_idempotent(self):
        exporter = MetricsExporter(Telemetry(run_id="t"), port=0)
        exporter.start()
        exporter.close()
        exporter.close()  # CLI teardown + error path both close

    def test_close_without_start_is_idempotent(self):
        exporter = MetricsExporter(Telemetry(run_id="t"), port=0)
        exporter.close()
        exporter.close()


def _live_args(**overrides):
    """The argparse surface _attach_live consumes, defaults off."""
    values = {
        "stream_out": None,
        "stream_rotate_bytes": None,
        "alert_rule": [],
        "metrics_port": None,
        "resume": False,
    }
    values.update(overrides)
    return argparse.Namespace(**values)


class TestAttachLiveErrorPaths:
    """CLI usage errors must exit cleanly and leak no resources."""

    def test_bad_alert_rule_is_a_usage_error(self, tmp_path):
        from repro.cli import _attach_live

        telemetry = Telemetry(run_id="t")
        with pytest.raises(SystemExit, match="^error: "):
            _attach_live(
                telemetry, _live_args(alert_rule=["metric == 5"])
            )

    def test_bad_alert_rule_closes_attached_stream_sink(self, tmp_path):
        from repro.cli import _attach_live

        telemetry = Telemetry(run_id="t")
        with pytest.raises(SystemExit, match="^error: "):
            _attach_live(
                telemetry,
                _live_args(
                    stream_out=str(tmp_path / "s.jsonl"),
                    alert_rule=["not a rule"],
                ),
            )
        (sink,) = telemetry._sinks
        assert sink.closed

    def test_taken_metrics_port_is_a_usage_error(self, tmp_path):
        from repro.cli import _attach_live

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            telemetry = Telemetry(run_id="t")
            with pytest.raises(SystemExit, match="^error: ") as err:
                _attach_live(
                    telemetry,
                    _live_args(
                        stream_out=str(tmp_path / "s.jsonl"),
                        metrics_port=port,
                    ),
                )
            assert str(port) in str(err.value)
            (sink,) = telemetry._sinks
            assert sink.closed
        finally:
            blocker.close()


class TestJsonlStreamSinkLifecycle:
    def test_descriptor_is_eager_and_close_is_observable(self, tmp_path):
        sink = JsonlStreamSink(tmp_path / "s.jsonl")
        assert not sink.closed
        assert (tmp_path / "s.jsonl").exists()
        sink.close()
        assert sink.closed

    def test_unwritable_path_fails_at_attach_time(self, tmp_path):
        target = tmp_path / "dir.jsonl"
        target.mkdir()
        with pytest.raises(OSError):
            JsonlStreamSink(target)


class TestLiveStreamingIsInert:
    """Sinks + alert rules attached ⇒ simulation output unchanged."""

    def test_run_results_bit_identical(self, tmp_path):
        plain_engine = SPEC.build_engine()
        plain = SPEC.execute(engine=plain_engine)

        telemetry = Telemetry(run_id="live")
        telemetry.attach_sink(JsonlStreamSink(tmp_path / "s.jsonl"))
        telemetry.attach_sink(SubscriberSink())
        telemetry.add_alert_rule("run_rounds_total > 1")
        live_engine = SPEC.build_engine(telemetry=telemetry)
        live = SPEC.execute(engine=live_engine)
        telemetry.close_sinks()

        assert vars(plain) == vars(live)
        records = read_stream_records(tmp_path / "s.jsonl")
        check_stream_contiguous(records)
        assert validate_stream_file(tmp_path / "s.jsonl") == len(records)
        # the final cumulative snapshot covers the whole run
        final = records[-1]["metrics"]
        totals = {
            m["name"]: sum(s["value"] for s in m["series"])
            for m in final["metrics"]
            if m["type"] != "histogram"
        }
        assert totals["run_rounds_total"] == len(records)
        assert totals["energy_joules_total"] > 0.0


class TestEventReportTruncation:
    def _events(self, count):
        return [
            {
                "schema": "repro.event.v1",
                "run_id": "t",
                "time_s": float(i),
                "kind": "tick",
                "node_id": "n",
                "detail": {},
            }
            for i in range(count)
        ]

    def test_truncation_is_announced(self):
        report = render_events_report(self._events(7), limit=5)
        assert "(first 5)" in report
        assert "(+2 more events)" in report

    def test_no_banner_when_everything_fits(self):
        report = render_events_report(self._events(5), limit=5)
        assert "more events" not in report
        assert "(first" not in report
