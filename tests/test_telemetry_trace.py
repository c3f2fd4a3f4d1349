"""Tracer span trees and event logs."""

import pytest

from repro.telemetry.events import EventLog, fault_log_sink
from repro.telemetry.schema import (
    SchemaError,
    validate_events_file,
    validate_trace_file,
)
from repro.telemetry.trace import Tracer


def _fake_clock():
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]

    return clock


class TestTracer:
    def test_nesting_assigns_parent_ids(self):
        tr = Tracer(run_id="t")
        run = tr.begin("run")
        rnd = tr.begin("round")
        op = tr.begin("camera_op")
        assert run.parent_id is None
        assert rnd.parent_id == run.span_id
        assert op.parent_id == rnd.span_id
        tr.end(op)
        sibling = tr.begin("camera_op")
        assert sibling.parent_id == rnd.span_id

    def test_end_closes_deeper_open_spans(self):
        tr = Tracer()
        run = tr.begin("run")
        inner = tr.begin("phase")
        tr.end(run)
        assert inner.end_s is not None
        assert all(s.end_s is not None for s in tr.spans)

    def test_end_is_idempotent(self):
        tr = Tracer(clock=_fake_clock())
        span = tr.begin("s")
        tr.end(span)
        first_end = span.end_s
        tr.end(span)
        assert span.end_s == first_end

    def test_context_manager_closes_dangling_children(self):
        tr = Tracer()
        with tr.span("outer", mode="full"):
            dangling = tr.begin("dangling")
        # Ending the outer span sweeps up the unclosed child.
        assert all(s.end_s is not None for s in tr.spans)
        assert dangling.end_s is not None

    def test_finish_closes_everything(self):
        tr = Tracer()
        tr.begin("run")
        tr.begin("round")
        tr.finish()
        assert all(s.end_s is not None for s in tr.spans)

    def test_write_jsonl_validates(self, tmp_path):
        tr = Tracer(run_id="t")
        with tr.span("run"):
            with tr.span("round", index=0):
                pass
        path = tmp_path / "trace.jsonl"
        assert tr.write_jsonl(path) == 2
        assert validate_trace_file(path) == 2

    def test_dangling_parent_reference_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema": "repro.span.v1", "run_id": "", "span_id": 1, '
            '"parent_id": 99, "name": "x", "start_s": 0.0, '
            '"duration_s": 0.0, "attributes": {}}\n'
        )
        with pytest.raises(SchemaError):
            validate_trace_file(path)


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog(run_id="r")
        log.emit("node_crash", time_s=1.0, node_id="cam1")
        log.emit("reselected", time_s=2.0, node_id="ctrl", reason="x")
        assert [e.kind for e in log.events] == ["node_crash", "reselected"]
        assert log.events[0].node_id == "cam1"

    def test_write_jsonl_validates(self, tmp_path):
        log = EventLog(run_id="r")
        log.emit("battery_threshold", time_s=3.0, node_id="cam2",
                 threshold=0.5)
        path = tmp_path / "events.jsonl"
        assert log.write_jsonl(path) == 1
        assert validate_events_file(path) == 1

    def test_fault_log_sink_mirrors_fault_events(self):
        from repro.faults.events import FaultLog

        log = EventLog()
        fault_log = FaultLog(sink=fault_log_sink(log))
        fault_log.fault(1.5, "node_crash", "cam1", "power loss")
        fault_log.recovery(2.5, "node_reboot", "cam1")
        assert [e.kind for e in log.events] == ["node_crash", "node_reboot"]
        (crash, reboot) = log.events
        assert crash.time_s == 1.5
        assert crash.detail["note"] == "power loss"
        assert reboot.node_id == "cam1"
