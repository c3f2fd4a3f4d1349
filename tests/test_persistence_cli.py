"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).parent.parent / "src"


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in (
            "table2", "table3", "table4", "table5",
            "fig3", "fig4", "fig5a", "fig5b", "fig6",
            "run",
        ):
            assert parser.parse_args([command]).command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "HOG" in out and "LSVM" in out

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
