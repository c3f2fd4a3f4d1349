"""Kill-and-resume stream stitching through the CLI.

A ``--stream-out`` file must come out of any number of crash/resume
cycles as one coherent stream — monotone round indices, no duplicates,
no gaps — indistinguishable in shape from an uninterrupted run's, and
the simulation results must stay byte-identical to a clean run.
"""

import json

from repro.cli import main
from repro.telemetry import (
    JsonlStreamSink,
    check_stream_contiguous,
    read_stream_records,
)
from repro.telemetry.live import stream_line
from repro.telemetry.schema import validate_stream_file


def _final_metrics(records):
    """The stream's final cumulative metrics snapshot."""
    return records[-1]["metrics"]["metrics"]


class TestRunStreamStitching:
    BASE = [
        "run", "--dataset", "1", "--mode", "full", "--seed", "7",
        "--start", "1000", "--end", "1300",
        "--recalibration-interval", "100",
    ]

    def test_identical_runs_write_identical_files(self, capsys, tmp_path):
        """Two runs of one deployment write byte-identical stream and
        checkpoint files: nothing host-dependent reaches the registry
        that both carry."""
        outputs = []
        for name in ("a", "b"):
            stream = tmp_path / f"{name}.jsonl"
            ckpt = tmp_path / f"ckpt-{name}"
            assert main(self.BASE + [
                "--stream-out", str(stream), "--checkpoint-dir", str(ckpt),
            ]) == 0
            outputs.append(
                (stream.read_bytes(), (ckpt / "checkpoint.json").read_bytes())
            )
        (stream_a, ckpt_a), (stream_b, ckpt_b) = outputs
        assert read_stream_records(tmp_path / "a.jsonl")
        assert stream_a == stream_b
        assert ckpt_a == ckpt_b

    def test_crash_resume_stream_is_gap_free(self, capsys, tmp_path):
        clean_result = tmp_path / "clean.json"
        clean_stream = tmp_path / "clean.jsonl"
        stitched_result = tmp_path / "stitched.json"
        stitched_stream = tmp_path / "stitched.jsonl"
        ckpt = tmp_path / "ckpt"

        assert main(self.BASE + [
            "--result-out", str(clean_result),
            "--stream-out", str(clean_stream),
        ]) == 0

        assert main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--crash-after", "1",
            "--stream-out", str(stitched_stream),
        ]) == 3
        assert "interrupted" in capsys.readouterr().out
        # the killed process flushed the rounds it completed
        assert read_stream_records(stitched_stream)

        assert main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--resume",
            "--result-out", str(stitched_result),
            "--stream-out", str(stitched_stream),
        ]) == 0

        assert clean_result.read_bytes() == stitched_result.read_bytes()
        clean = read_stream_records(clean_stream)
        stitched = read_stream_records(stitched_stream)
        check_stream_contiguous(clean)
        check_stream_contiguous(stitched)
        assert validate_stream_file(stitched_stream) == len(stitched)
        assert len(stitched) == len(clean)
        assert _final_metrics(stitched) == _final_metrics(clean)

    def test_fresh_run_replaces_previous_stream(self, capsys, tmp_path):
        stream = tmp_path / "s.jsonl"
        stream.write_text(
            json.dumps({"schema": "repro.stream.v1", "seq": 99,
                        "round": 99}) + "\n"
        )
        assert main(self.BASE + ["--stream-out", str(stream)]) == 0
        records = read_stream_records(stream)
        check_stream_contiguous(records)
        assert all(r["round"] != 99 for r in records)


def _fixed_line(seq, round_index):
    """A record line whose length is the same for every seq < 10, so
    rotation boundaries can be pinned to exact byte offsets."""
    return stream_line(
        run_id="rot",
        seq=seq,
        round_index=round_index,
        time_s=0.0,
        metrics_json='{"metrics": [], "schema": "repro.metrics.v1"}',
        events=[],
        alerts=[],
    )


class TestRotationBoundaryStitching:
    """A kill that tears the live file *at* the rotation boundary must
    still stitch into one coherent stream on resume."""

    def test_torn_line_at_exact_rotation_boundary(self, tmp_path):
        path = tmp_path / "s.jsonl"
        line_len = len(_fixed_line(0, 0))
        rotate = 4 * line_len

        sink = JsonlStreamSink(path, rotate_bytes=rotate)
        for i in range(4):
            sink.emit(_fixed_line(i, i))
        sink.close()
        # A record that exactly fills the file does not rotate: the
        # live file sits at precisely rotate_bytes, the worst case.
        assert path.stat().st_size == rotate
        assert not (tmp_path / "s.jsonl.1").exists()

        # OS-crash torn write of record 4, straddling the boundary.
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"schema": "repro.stream.v1", "seq": 4, "rou')

        resumed = JsonlStreamSink(path, rotate_bytes=rotate, resume=True)
        resumed.on_resume(4)
        # The torn tail is gone; the stitched file is back at the
        # boundary, so the very next emit must rotate.
        assert path.stat().st_size == rotate
        for i in range(4, 7):
            resumed.emit(_fixed_line(i, i))
        resumed.close()

        assert (tmp_path / "s.jsonl.1").exists()
        records = read_stream_records(path)
        check_stream_contiguous(records)
        assert [r["round"] for r in records] == list(range(7))

    def test_crash_resume_with_rotation_active(self, capsys, tmp_path):
        base = [
            "run", "--dataset", "1", "--mode", "full", "--seed", "7",
            "--start", "1000", "--end", "1300",
            "--recalibration-interval", "100",
        ]
        clean_stream = tmp_path / "clean.jsonl"
        stitched_stream = tmp_path / "stitched.jsonl"
        ckpt = tmp_path / "ckpt"

        assert main(base + ["--stream-out", str(clean_stream)]) == 0

        # Rotate on effectively every flush (each cumulative snapshot
        # record is far bigger than 1 KiB), so the crash always lands
        # with a rotation chain on disk.
        rotated = ["--stream-rotate-bytes", "1024"]
        assert main(base + rotated + [
            "--checkpoint-dir", str(ckpt), "--crash-after", "1",
            "--stream-out", str(stitched_stream),
        ]) == 3
        assert "interrupted" in capsys.readouterr().out
        assert (tmp_path / "stitched.jsonl.1").exists()

        assert main(base + rotated + [
            "--checkpoint-dir", str(ckpt), "--resume",
            "--stream-out", str(stitched_stream),
        ]) == 0

        clean = read_stream_records(clean_stream)
        stitched = read_stream_records(stitched_stream)
        check_stream_contiguous(stitched)
        assert validate_stream_file(stitched_stream) == len(stitched)
        assert len(stitched) == len(clean)
        assert _final_metrics(stitched) == _final_metrics(clean)


class TestChaosStreamStitching:
    BASE = [
        "chaos", "--dataset", "1", "--seed", "7", "--frames", "10",
        "--loss-rate", "0.2", "--crash", "1", "--resilience",
    ]

    def test_crash_resume_stream_is_gap_free(self, capsys, tmp_path):
        clean_result = tmp_path / "clean.json"
        clean_stream = tmp_path / "clean.jsonl"
        stitched_result = tmp_path / "stitched.json"
        stitched_stream = tmp_path / "stitched.jsonl"
        ckpt = tmp_path / "ckpt"

        assert main(self.BASE + [
            "--result-out", str(clean_result),
            "--stream-out", str(clean_stream),
        ]) == 0

        assert main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--crash-after", "4",
            "--stream-out", str(stitched_stream),
        ]) == 3
        assert "interrupted" in capsys.readouterr().out

        assert main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--resume",
            "--result-out", str(stitched_result),
            "--stream-out", str(stitched_stream),
        ]) == 0

        assert clean_result.read_bytes() == stitched_result.read_bytes()
        clean = read_stream_records(clean_stream)
        stitched = read_stream_records(stitched_stream)
        check_stream_contiguous(clean)
        check_stream_contiguous(stitched)
        assert validate_stream_file(stitched_stream) == len(stitched)
        assert len(stitched) == len(clean)
        assert _final_metrics(stitched) == _final_metrics(clean)
        # the resilience mirror rides along in the stream
        names = {m["name"] for m in stitched[-1]["metrics"]["metrics"]}
        assert "camera_health" in names
