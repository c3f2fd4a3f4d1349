"""Regenerate the ``training`` block of ``BENCH_scale.json`` (see
EXPERIMENTS.md).

Times ``DeploymentContext.build`` (offline training plus the colour
metric) of datasets 1-3 from rendered frames, each run in a fresh
process, alternating between this checkout's ``src/`` and the ``src/``
of the checkout given by ``--before`` so both see the same load; keeps
the best of ``--repeats`` per dataset and side.  Then times one
camera's training on the column path against the oracle path
(``oracle_train_camera`` in ``test_bench_scale.py``), interleaved
in-process.

Run from the repo root, with a checkout of the commit to compare
against:

    git clone -q . /tmp/before && git -C /tmp/before checkout -q <commit>
    PYTHONPATH=src:. python benchmarks/gen_bench_training.py \\
        --before /tmp/before/src
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Build one dataset's context from rendered frames; print the seconds.
PROBE = """
import sys, time
import numpy as np
from repro.datasets.synthetic import make_dataset
from repro.engine.context import DeploymentContext

number = int(sys.argv[1])
dataset = make_dataset(number)
dataset.training_segment()
start = time.perf_counter()
DeploymentContext.build(dataset, rng=np.random.default_rng(2017 + number))
print(time.perf_counter() - start)
"""


def build_seconds(src: Path, number: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(number)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    return float(out.split()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    results = {}
    for number in (1, 2, 3):
        before, after = [], []
        for _ in range(args.repeats):
            before.append(build_seconds(args.before, number))
            after.append(build_seconds(SRC, number))
        results[f"dataset_{number}"] = {
            "before_s": round(min(before), 3),
            "after_s": round(min(after), 3),
            "speedup": round(min(before) / min(after), 2),
        }

    from benchmarks.test_bench_scale import time_camera_training

    column_s, oracle_s = time_camera_training(args.repeats)
    block = {
        "command": (
            "PYTHONPATH=src:. python benchmarks/gen_bench_training.py "
            "--before <checkout of the compared commit>/src"
        ),
        "environment": {"cpus": os.cpu_count()},
        "repeats": args.repeats,
        "results": results,
        "one_camera": {
            "column_s": round(column_s, 3),
            "oracle_s": round(oracle_s, 3),
            "speedup_vs_oracle": round(oracle_s / column_s, 2),
        },
    }
    print(json.dumps(block, indent=2))


if __name__ == "__main__":
    main()
