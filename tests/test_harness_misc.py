"""Tests for how experiments build engines, and assorted edge
behaviour."""

import importlib

import pytest

from repro.core.config import EECSConfig
from repro.engine import DeploymentSpec


class TestHarness:
    def test_context_shared_engines_fresh(self):
        """Training artefacts are cached; per-run mutable state is not."""
        spec = DeploymentSpec(dataset_number=1)
        a = spec.build_engine()
        b = spec.build_engine()
        # Fresh engine per call: no leaked controller or battery state
        # between experiments...
        assert a is not b
        assert a.controller is not b.controller
        # ...over the same immutable trained context.
        assert a.context is b.context
        assert a.library is b.library
        assert a.matcher is b.matcher

    def test_custom_config_gets_own_context(self):
        spec = DeploymentSpec(dataset_number=1)
        custom = spec.build_engine(config=EECSConfig(gamma_n=0.7))
        default = spec.build_engine()
        assert custom.config.gamma_n == 0.7
        assert custom.context is not default.context
        # Repeated custom-config calls share a context too (the old
        # runner cache rebuilt — retrained — on every such call).
        again = spec.build_engine(config=EECSConfig(gamma_n=0.7))
        assert again.context is custom.context

    def test_reset_runners_is_gone(self):
        """The deprecated facade shim, and the harness module that
        held it, were removed outright."""
        import repro.experiments as experiments

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.experiments.harness")
        assert "reset_runners" not in experiments.__all__
        assert "get_engine" not in experiments.__all__

    def test_run_spec_validates_policy_name(self):
        with pytest.raises(ValueError, match="valid policies are"):
            DeploymentSpec(dataset_number=1, policy="bestest")

    def test_run_spec_validates_fixed_assignment(self):
        with pytest.raises(ValueError, match="assignment"):
            DeploymentSpec(dataset_number=1, policy="fixed")


class TestCameraFailureHandling:
    def test_dead_camera_excluded_from_selection(self, runner1):
        """A camera whose budget collapses (battery dead) is excluded
        while the rest of the network keeps operating."""
        from repro.core.selection import AssessmentData
        from repro.energy.meter import EnergyMeter

        dataset = runner1.dataset
        records = dataset.frames(1000, 1200, only_ground_truth=True)[:3]
        meter = EnergyMeter()
        assessment = runner1.collect_assessment(records, 2.0, meter)

        dead = dataset.camera_ids[0]
        overrides = {
            camera_id: (0.001 if camera_id == dead else 2.0)
            for camera_id in dataset.camera_ids
        }
        decision = runner1.controller.select(
            assessment, budget_overrides=overrides
        )
        assert dead not in decision.assignment
        assert decision.assignment  # survivors still selected

    def test_all_dead_raises(self, runner1):
        from repro.core.selection import AssessmentData

        with pytest.raises(RuntimeError):
            runner1.controller.select(
                AssessmentData(frames=[{}]),
                budget_overrides={
                    c: 0.001 for c in runner1.dataset.camera_ids
                },
            )


class TestAdaptiveSelectAlgorithm:
    def test_exclusion_respected(self):
        from repro.core.adaptive import AdaptiveDeployment
        from repro.core.calibration import TrainingItem
        from tests.test_core_calibration import make_profile

        item = TrainingItem(
            name="T",
            profiles={
                "LSVM": make_profile("LSVM", f=0.9),
                "HOG": make_profile("HOG", f=0.7),
            },
        )
        # Bypass __init__ (heavy); call the method on a bare instance.
        deployment = AdaptiveDeployment.__new__(AdaptiveDeployment)
        deployment.exclude = ("LSVM",)
        assert deployment.select_algorithm(item) == "HOG"

    def test_no_exclusion_picks_best(self):
        from repro.core.adaptive import AdaptiveDeployment
        from repro.core.calibration import TrainingItem
        from tests.test_core_calibration import make_profile

        item = TrainingItem(
            name="T",
            profiles={
                "LSVM": make_profile("LSVM", f=0.9),
                "HOG": make_profile("HOG", f=0.7),
            },
        )
        deployment = AdaptiveDeployment.__new__(AdaptiveDeployment)
        deployment.exclude = ()
        assert deployment.select_algorithm(item) == "LSVM"
