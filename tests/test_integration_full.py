"""End-to-end integration: offline training -> persistence -> a fresh
controller -> selection -> deployment, as a field workflow would."""

import numpy as np
import pytest

from repro.core.config import EECSConfig
from repro.core.controller import EECSController
from repro.energy.battery import Battery
from repro.energy.communication import CommunicationEnergyModel
from repro.energy.meter import EnergyMeter
from repro.persistence import load_library, save_library


class TestFieldWorkflow:
    @pytest.fixture(scope="class")
    def reloaded_controller(self, runner1, tmp_path_factory):
        """Save the trained library, reload it, and build a brand-new
        controller around it (as a deployment server restart would)."""
        path = tmp_path_factory.mktemp("field") / "library.json"
        save_library(runner1.library, path)
        library = load_library(path)

        env = runner1.dataset.environment
        controller = EECSController(
            EECSConfig(), library, runner1.matcher
        )
        for camera_id in runner1.dataset.camera_ids:
            controller.register_camera(
                camera_id,
                processing_model=runner1.energy_model,
                communication_model=CommunicationEnergyModel(
                    width=env.width, height=env.height
                ),
                battery=Battery(),
            )
            controller.assign_training_item(camera_id, f"T-{camera_id}")
        return controller

    def test_reloaded_profiles_match(self, runner1, reloaded_controller):
        for camera_id in runner1.dataset.camera_ids:
            original = runner1.library.get(f"T-{camera_id}")
            restored = reloaded_controller.library.get(f"T-{camera_id}")
            for algorithm in original.algorithms:
                a = original.profile(algorithm)
                b = restored.profile(algorithm)
                assert a.threshold == pytest.approx(b.threshold)
                assert a.f_score == pytest.approx(b.f_score)

    def test_reloaded_controller_selects(self, runner1, reloaded_controller):
        """The restored controller reproduces the original's decision
        on the same assessment metadata."""
        records = runner1.dataset.frames(
            1000, 1200, only_ground_truth=True
        )[:3]
        meter = EnergyMeter()
        assessment = runner1.collect_assessment(records, 2.0, meter)
        overrides = {c: 2.0 for c in runner1.dataset.camera_ids}

        original = runner1.controller.select(
            assessment, budget_overrides=overrides
        )
        restored = reloaded_controller.select(
            assessment, budget_overrides=overrides
        )
        assert restored.assignment == original.assignment
        assert restored.baseline.num_objects == pytest.approx(
            original.baseline.num_objects
        )

    def test_reloaded_calibrators_fill_probabilities(
        self, runner1, reloaded_controller
    ):
        from repro.detection.base import BoundingBox, Detection

        camera_id = runner1.dataset.camera_ids[0]
        det = Detection(
            bbox=BoundingBox(0, 0, 10, 20),
            score=0.8,
            camera_id=camera_id,
            frame_index=0,
            algorithm="HOG",
        )
        reloaded_controller.calibrate_probabilities(camera_id, [det])
        assert 0.0 <= det.probability <= 1.0
        assert not np.isnan(det.probability)
