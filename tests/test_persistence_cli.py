"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

SRC = Path(__file__).parent.parent / "src"


class TestCli:
    def test_parser_knows_all_commands(self):
        """The paper's tables and figures print from their benchmarks
        (``pytest benchmarks/test_bench_fig5.py -s``), not from
        subcommands."""
        parser = build_parser()
        for command in ("run", "chaos", "telemetry-report"):
            assert parser.parse_args([command]).command == command
        args = parser.parse_args(["obs", "profile", "t.jsonl"])
        assert args.command == "obs"
        for gone in ("table2", "table5", "fig3", "fig5a", "fig6", "report"):
            with pytest.raises(SystemExit):
                parser.parse_args([gone])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_command_is_gone(self):
        """Deployments train their library in process; no command
        writes a library file."""
        out = subprocess.run(
            [sys.executable, "-m", "repro", "train", "--dataset", "1",
             "--save", "library.json"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "invalid choice: 'train'" in out.stderr
