"""Seeds, output checks and run hygiene of the benchmark workloads.

These train dataset 1 once (about 10 s) and run a few short deployments.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent


def test_deployment_seeds_follow_the_workload_seed():
    assert workloads.deployment_seeds(5, 4) == workloads.deployment_seeds(5, 4)
    assert len(set(workloads.deployment_seeds(5, 4))) == 4
    assert workloads.deployment_seeds(5, 4) != workloads.deployment_seeds(6, 4)


def _digests(workload, workload_seed):
    digests = []
    for item in workload.inputs(workload_seed):
        with workload.workspace() as workdir:
            outcome = workload.outcome(
                item, workload.deploy(item, workdir), workdir
            )
        assert outcome.errors == []
        digests.append(outcome.digest)
    return digests


@pytest.fixture(scope="module")
def short_ideal():
    return workloads.SpecWorkload(
        seeds_per_cycle=2,
        specs=[
            {"dataset_number": 1, "policy": "full", "budget": 2.0,
             "start": 1000, "end": 1250}
        ],
    )


def test_equal_seeds_give_equal_digests_and_distinct_seeds_distinct(
    short_ideal,
):
    first = _digests(short_ideal, 11)
    assert _digests(short_ideal, 11) == first
    assert len(set(first)) == len(first)
    assert set(_digests(short_ideal, 12)).isdisjoint(first)


def test_chaos_seeds_give_distinct_digests(tmp_path):
    chaos = workloads.ChaosWorkload(tmp_path / "scratch", seeds_per_cycle=2)
    first = _digests(chaos, 3)
    assert _digests(chaos, 3) == first
    assert len(set(first)) == 2
    assert set(_digests(chaos, 4)).isdisjoint(first)
    assert not (tmp_path / "scratch").exists()


def test_checks_catch_an_energy_split_that_does_not_add_up(short_ideal):
    spec = short_ideal.inputs(11)[0]
    result, _ = short_ideal.deploy(spec, None)
    assert workloads.check_run_result(result) == []
    result.communication_joules += 1.0
    result.humans_detected = result.humans_present + 1
    errors = workloads.check_run_result(result)
    assert any("processing + communication" in e for e in errors)
    assert any("humans_detected" in e for e in errors)


def test_chaos_checks_catch_unpaid_energy_and_a_torn_stream(tmp_path):
    chaos = workloads.ChaosWorkload(tmp_path / "scratch", seeds_per_cycle=1)
    spec = chaos.inputs(5)[0]
    with chaos.workspace() as workdir:
        result, telemetry = chaos.deploy(spec, workdir)
        assert chaos.outcome(spec, (result, telemetry), workdir).errors == []
        camera = sorted(result.battery_by_camera)[0]
        result.battery_by_camera[camera] += 1.0
        stream = workdir / workloads.STREAM
        stream.write_text("".join(stream.read_text().splitlines(True)[:-1]))
        errors = chaos.outcome(spec, (result, telemetry), workdir).errors
    assert any(e.startswith(f"{camera}: energy counters") for e in errors)
    assert any("telemetry stream has" in e for e in errors)


def _listing(root: Path) -> set:
    found = set()
    for path, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__")]
        found.update(os.path.join(path, name) for name in dirs + files)
    return found


def test_a_traced_run_leaves_no_files_behind(tmp_path):
    shm = Path("/dev/shm")
    shm_before = set(os.listdir(shm)) if shm.is_dir() else set()
    before = _listing(CHECKOUT)
    spans_out = tmp_path / "spans.jsonl"
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chaos_durable",
         "--seed", "1", "--seconds", "1", "--trace", "1",
         "--spans-out", str(spans_out)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["checkpoint.save.calls"]["value"] > 0
    assert _listing(CHECKOUT) == before
    assert (set(os.listdir(shm)) if shm.is_dir() else set()) == shm_before

    spans = [json.loads(line) for line in spans_out.read_text().splitlines()]
    roots = [s for s in spans if s["parent"] is None]
    assert roots and {s["name"] for s in roots} == {"deploy"}
    wall = sum(s["end"] - s["start"] for s in roots)
    assert sum(s["self_s"] for s in spans) == pytest.approx(wall, rel=1e-9)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout == ""
