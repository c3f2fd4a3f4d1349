"""Slow-path CLI tests: the deployment commands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestCliDeployment:
    def test_run_command_end_to_end(self, capsys):
        """`python -m repro run` trains offline and deploys."""
        code = main([
            "run", "--dataset", "1", "--mode", "full",
            "--budget", "2.0", "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "humans detected" in out
        assert "energy" in out
        assert "cameras/round" in out

    def test_workers_flag_is_a_usage_error(self):
        """`--workers` is gone: argparse rejects it with exit 2."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--workers", "2"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage:")
        assert "unrecognized arguments: --workers 2" in proc.stderr


class TestCliCheckpoint:
    BASE = [
        "run", "--dataset", "1", "--mode", "full", "--seed", "7",
        "--start", "1000", "--end", "1300",
        "--recalibration-interval", "100",
    ]

    def test_run_checkpoint_crash_and_resume(self, capsys, tmp_path):
        """Kill at a round boundary (exit 3), resume bit-identically."""
        reference = tmp_path / "reference.json"
        resumed = tmp_path / "resumed.json"
        ckpt = tmp_path / "ckpt"

        code = main(self.BASE + ["--result-out", str(reference)])
        assert code == 0

        code = main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--crash-after", "0",
        ])
        assert code == 3
        assert "interrupted" in capsys.readouterr().out
        assert list(ckpt.glob("*.json")), "no checkpoint written"

        code = main(self.BASE + [
            "--checkpoint-dir", str(ckpt), "--resume",
            "--result-out", str(resumed),
        ])
        assert code == 0
        assert reference.read_bytes() == resumed.read_bytes()

    def test_non_object_checkpoint_is_a_clean_error(self, capsys, tmp_path):
        """A checkpoint that is valid JSON but not an object exits 2
        with a message instead of a traceback."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "checkpoint.json").write_text("[1, 2]")
        code = main([
            "chaos", "--dataset", "1", "--frames", "4",
            "--checkpoint-dir", str(ckpt), "--resume",
        ])
        assert code == 2
        assert "not an object" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--resume"])

    @pytest.mark.parametrize("command", [
        ["run", "--dataset", "1", "--mode", "full", "--start", "1000",
         "--end", "1500", "--recalibration-interval", "250"],
        ["chaos", "--dataset", "1", "--frames", "4"],
    ], ids=["run", "chaos"])
    @pytest.mark.parametrize("flag, needed", [
        (["--stream-rotate-bytes", "100"], "--stream-out"),
        (["--checkpoint-every", "1"], "--checkpoint-dir"),
        (["--resume"], "--checkpoint-dir"),
        (["--crash-after", "0"], "--checkpoint-dir"),
        (["--health-degrade", "0.5"], "--resilience"),
        (["--health-quarantine", "0.3"], "--resilience"),
        (["--health-readmit", "0.9"], "--resilience"),
    ], ids=[
        "rotate", "every", "resume", "crash-after",
        "health-degrade", "health-quarantine", "health-readmit",
    ])
    def test_durability_flag_needs_its_prerequisite(
        self, capsys, command, flag, needed
    ):
        """A durability or health flag that would do nothing alone is a
        usage error (exit 2) naming the missing flag, before any
        training."""
        with pytest.raises(SystemExit) as info:
            main(command + flag)
        assert info.value.code == 2
        assert f"{flag[0]} requires {needed}" in capsys.readouterr().err


class TestCliSpecErrors:
    def test_wake_threshold_without_predictive_mode(self):
        """A predictive tunable under another policy exits with the
        spec's own message, before any training."""
        from repro.engine.spec import DeploymentSpec

        with pytest.raises(ValueError) as refused:
            DeploymentSpec(
                dataset_number=1, policy="full", wake_threshold=1.0
            )
        with pytest.raises(SystemExit) as info:
            main([
                "run", "--dataset", "1", "--mode", "full",
                "--wake-threshold", "1",
            ])
        assert info.value.code == f"error: {refused.value}"
