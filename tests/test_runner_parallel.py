"""Runs are reproducible: a fixed configuration gives a fixed result.

Every detection task seeds its own generator from the run entropy plus
its (frame, camera, algorithm) coordinates, so a run never depends on
execution order or on the runs before it; these tests pin that
guarantee.
"""

import numpy as np

from repro.engine import DeploymentEngine, DeploymentSpec
from repro.obs.profile import fold_by_name
from repro.telemetry import Telemetry


def _fingerprint(result):
    return (
        result.humans_detected,
        result.humans_present,
        result.energy_joules,
        result.processing_joules,
        result.communication_joules,
        result.mean_fused_probability,
        result.processing_seconds,
        tuple(sorted(result.energy_by_camera.items())),
        tuple(tuple(sorted(d.assignment.items())) for d in result.decisions),
    )


class TestRunnerWorkers:
    def test_repeated_serial_runs_stable(self, runner1):
        a = runner1.run("full", budget=2.0, start=1000, end=1300)
        b = runner1.run("full", budget=2.0, start=1000, end=1300)
        assert _fingerprint(a) == _fingerprint(b)

    def test_timing_sections_populated(self, runner1):
        """Phase sections are tracer spans when telemetry is attached."""
        engine = DeploymentEngine(
            runner1.context, telemetry=Telemetry(run_id="timing")
        )
        engine.run("full", budget=2.0, start=1000, end=1300)
        entries = {
            entry.path: entry
            for entry in fold_by_name(
                list(engine.telemetry.tracer.iter_records())
            )
        }
        assert "detection" in entries
        assert "selection" in entries
        assert entries["detection"].calls > 0
        assert entries["detection"].total_s > 0.0


class TestHarnessWorkers:
    def test_fixed_spec_assignment_roundtrip(self):
        spec = DeploymentSpec(
            dataset_number=1,
            policy="fixed",
            start=1000,
            end=1200,
            assignment=(("lab-cam1", "HOG"),),
        )
        result = spec.execute()
        assert result.mode == "fixed"
        assert all(
            decision.assignment == {"lab-cam1": "HOG"}
            for decision in result.decisions
        )


class TestPerCameraDeterminism:
    def test_entropy_depends_on_coordinates(self, runner1):
        records = runner1.dataset.frames(1000, 1011, only_ground_truth=True)
        cameras = runner1.dataset.camera_ids
        e1 = runner1._task_entropy(records[0], cameras[0], "HOG")
        e2 = runner1._task_entropy(records[0], cameras[1], "HOG")
        e3 = runner1._task_entropy(records[0], cameras[0], "ACF")
        assert len({e1, e2, e3}) == 3

    def test_task_rng_reproducible(self, runner1):
        record = runner1.dataset.frames(1000, 1001)[0]
        camera_id = runner1.dataset.camera_ids[0]
        entropy = runner1._task_entropy(record, camera_id, "HOG")
        a = np.random.default_rng(list(entropy)).normal(size=4)
        b = np.random.default_rng(list(entropy)).normal(size=4)
        np.testing.assert_array_equal(a, b)
