"""Unit tests for the deployment-engine package."""

import numpy as np
import pytest

from repro.engine import (
    AllBestPolicy,
    CoordinationPolicy,
    DeploymentEngine,
    DeploymentSpec,
    FullEECSPolicy,
    SerialDetectionExecutor,
    SimulationClock,
    SubsetPolicy,
    available_policies,
    register_policy,
    resolve_policy,
    validate_policy_name,
)
from repro.engine.policy import _REGISTRY, RoundPlan
from repro.engine.spec import FAULT_FIELDS, PREDICTIVE_FIELDS
from repro.faults.plan import FaultPlan
from repro.resilience.ladder import ResilienceConfig
from tests.golden_utils import network_spec

#: One non-default value per fault field.
FAULT_VALUES = {
    "loss_rate": 0.5,
    "crash_count": 2,
    "reboot_s": 25.0,
    "fault_camera_count": 2,
    "sensor_noise": 0.9,
    "sensor_fp_rate": 1.0,
    "stuck": True,
    "score_drift_per_s": 0.1,
    "clock_skew": 0.5,
    "corruption_rate": 0.2,
}

#: One value per field the networked environment cannot honour.
IDEAL_ONLY_VALUES = {
    "policy": "subset",
    "assignment": (("lab-cam1", "HOG"),),
    "fleet_cameras": 8,
    "cells": 2,
    "wake_threshold": 9.0,
    "predictor_warmup": 2,
    "wake_probe_every": 4,
    "max_sleepers": 1,
}


class TestSimulationClock:
    def test_frame_cadence(self):
        clock = SimulationClock(seconds_per_frame=2.0)
        assert clock.now_s == 0.0
        assert clock.time_at_frame(1000) == 2000.0
        assert clock.advance_to_frame(1500) == 3000.0
        assert clock.now_s == 3000.0


class TestExecutors:
    def test_unknown_backend_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            DeploymentSpec(dataset_number=1, executor="threads")
        message = str(excinfo.value)
        assert "threads" in message
        assert "'serial' is the only backend" in message

    def test_serial_execute_matches_run_batch(self, runner1):
        from repro.detection.batch import DetectionBatch, DetectionTask, run_batch

        engine = runner1
        record = engine.dataset.frames(1000, 1001)[0]
        tasks = tuple(
            DetectionTask(
                algorithm=algorithm,
                observation=record.observation(camera_id),
                entropy=(2017, record.frame_index, idx),
                threshold=None,
            )
            for idx, (camera_id, algorithm) in enumerate(
                (c, a)
                for c in engine.dataset.camera_ids[:2]
                for a in sorted(engine.detectors)
            )
        )
        batch = DetectionBatch(tasks=tasks)
        executor = SerialDetectionExecutor()
        direct = run_batch(engine.detectors, tasks)
        executed = executor.execute(batch, engine.detectors)

        def signature(results):
            return [
                [
                    (d.bbox, d.camera_id, d.algorithm, d.score,
                     tuple(d.color_feature))
                    for d in dets
                ]
                for dets in results
            ]

        assert signature(executed) == signature(direct)


class TestPolicyRegistry:
    def test_all_registered(self):
        assert available_policies() == (
            "all_best", "cell", "cell_full", "fixed", "full", "predictive",
            "subset",
        )

    def test_unknown_name_lists_valid_policies(self):
        with pytest.raises(ValueError) as excinfo:
            validate_policy_name("bestest")
        message = str(excinfo.value)
        assert "bestest" in message
        for name in available_policies():
            assert repr(name) in message

    def test_resolve_by_name_and_instance(self):
        policy = resolve_policy("full")
        assert isinstance(policy, FullEECSPolicy)
        assert resolve_policy(policy) is policy

    def test_full_is_subset_with_downgrade(self):
        assert issubclass(FullEECSPolicy, SubsetPolicy)
        assert FullEECSPolicy.enable_downgrade
        assert not SubsetPolicy.enable_downgrade

    def test_fixed_requires_assignment(self):
        with pytest.raises(ValueError):
            resolve_policy("fixed").validate(None)
        resolve_policy("fixed").validate({"cam": "HOG"})

    def test_new_policy_needs_only_registration(self):
        """Adding a strategy = subclass + register, no engine edits."""

        @register_policy
        class EveryOtherFramePolicy(AllBestPolicy):
            name = "every_other"

        try:
            assert "every_other" in available_policies()
            assert isinstance(
                resolve_policy("every_other"), EveryOtherFramePolicy
            )
        finally:
            del _REGISTRY["every_other"]

    def test_engine_loop_has_no_mode_string_branching(self):
        """The engine core never compares against policy names."""
        import repro.engine.core as core
        from pathlib import Path

        source = Path(core.__file__).read_text()
        for name in available_policies():
            assert f'== "{name}"' not in source
            assert f"== '{name}'" not in source


class TestRoundPlanning:
    def test_all_best_single_round(self, runner1):
        engine = runner1
        records = engine.dataset.frames(1000, 1300, only_ground_truth=True)
        plans = AllBestPolicy().plan_rounds(engine, records, 2.0, None)
        assert len(plans) == 1
        assert plans[0].assess_count == 0
        assert len(plans[0].static_assignments) == len(records)

    def test_subset_partitions_by_recalibration_interval(self, runner1):
        engine = runner1
        records = engine.dataset.frames(1000, 2500, only_ground_truth=True)
        plans = SubsetPolicy().plan_rounds(engine, records, 2.0, None)
        per_round = engine.gt_frames_per_round
        assert per_round == 20  # 500-frame interval / gt every 25
        assert [len(p.records) for p in plans] == [20, 20, 20]
        assert all(
            p.assess_count == engine.gt_frames_per_assessment for p in plans
        )


class TestDeploymentSpec:
    def test_validates_policy_at_construction(self):
        with pytest.raises(ValueError, match="valid policies are"):
            DeploymentSpec(dataset_number=1, policy="warp")

    def test_validates_fixed_assignment_at_construction(self):
        with pytest.raises(ValueError, match="assignment"):
            DeploymentSpec(dataset_number=1, policy="fixed")
        DeploymentSpec(
            dataset_number=1,
            policy="fixed",
            assignment=(("lab-cam1", "HOG"),),
        )

    def test_validates_executor_at_construction(self):
        """``executor`` accepts the absent value and ``"serial"``."""
        assert DeploymentSpec(dataset_number=1).executor is None
        spec = DeploymentSpec(dataset_number=1, executor="serial")
        assert spec.executor == "serial"

    def test_rejects_deleted_pool_backend(self):
        with pytest.raises(ValueError, match="'pool'"):
            DeploymentSpec(dataset_number=1, executor="pool")

    def test_rejects_deleted_shm_backend(self):
        with pytest.raises(ValueError, match="'shm'.*'serial' is the only"):
            DeploymentSpec(dataset_number=1, executor="shm")

    def test_serial_executor_still_builds(self):
        spec = DeploymentSpec(dataset_number=1, executor="serial")
        engine = spec.build_engine()
        assert isinstance(engine.executor, SerialDetectionExecutor)

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = DeploymentSpec(dataset_number=1, policy="subset", budget=2.0)
        assert hash(spec) == hash(
            DeploymentSpec(dataset_number=1, policy="subset", budget=2.0)
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_execute_rejects_engine_with_other_seed(self, runner1):
        spec = DeploymentSpec(dataset_number=1, seed=7)
        with pytest.raises(
            ValueError, match="engine seed 2017 does not match.*seed 7"
        ):
            spec.execute(engine=runner1)

    def test_fault_fields_cover_every_default(self):
        assert set(FAULT_VALUES) == set(FAULT_FIELDS)

    @pytest.mark.parametrize("name", sorted(IDEAL_ONLY_VALUES))
    def test_network_rejects_ideal_only_field(self, name):
        fields = {name: IDEAL_ONLY_VALUES[name]}
        if name in PREDICTIVE_FIELDS:
            fields["policy"] = "predictive"
        elif name == "cells":
            fields["policy"] = "cell"
        DeploymentSpec(dataset_number=1, **fields)
        with pytest.raises(ValueError, match="require.*network=False"):
            DeploymentSpec(dataset_number=1, network=True, **fields)

    @pytest.mark.parametrize("name", sorted(FAULT_VALUES) + ["fault_plan"])
    def test_ideal_feed_rejects_fault_field(self, name):
        value = FAULT_VALUES.get(name, FaultPlan(seed=7))
        DeploymentSpec(dataset_number=1, network=True, **{name: value})
        with pytest.raises(ValueError, match=f"{name}.*network=True"):
            DeploymentSpec(dataset_number=1, **{name: value})

    @pytest.mark.parametrize("name", sorted(FAULT_VALUES))
    def test_fault_plan_excludes_fault_fields(self, name):
        """An explicit plan replaces the plan the fault fields describe,
        so setting both would silently drop the fields."""
        with pytest.raises(ValueError, match=f"fault_plan.*drop {name}"):
            DeploymentSpec(
                dataset_number=1,
                network=True,
                fault_plan=FaultPlan(seed=7),
                **{name: FAULT_VALUES[name]},
            )

    def test_network_spec_is_hashable(self):
        def make():
            return network_spec(
                8,
                resilience=ResilienceConfig(enabled=True),
                fault_plan=FaultPlan.uniform_loss(0.2),
            )

        assert make() == make()
        assert hash(make()) == hash(make())

    def test_ideal_feed_rejects_foreign_telemetry(self, runner1):
        from repro.telemetry import Telemetry

        spec = DeploymentSpec(
            dataset_number=1, budget=2.0, start=1000, end=1100
        )
        with pytest.raises(ValueError, match="engine's telemetry"):
            spec.execute(engine=runner1, telemetry=Telemetry(run_id="t"))
        traced = DeploymentEngine(
            runner1.context, telemetry=Telemetry(run_id="own")
        )
        spec.execute(engine=traced, telemetry=traced.telemetry)
        assert traced.telemetry.tracer.spans

    def test_network_records_into_given_telemetry(self, runner1):
        from repro.telemetry import Telemetry

        telemetry = Telemetry(run_id="given")
        network_spec(4).execute(engine=runner1, telemetry=telemetry)
        assert "run" in {s.name for s in telemetry.tracer.spans}
        # Without one, the network records into the engine's.
        traced = DeploymentEngine(
            runner1.context, telemetry=Telemetry(run_id="engine")
        )
        network_spec(4).execute(engine=traced)
        assert "run" in {s.name for s in traced.telemetry.tracer.spans}


class TestEngineSeams:
    def test_round_boundary_flushes_before_checkpoint(
        self, runner1, monkeypatch, tmp_path
    ):
        """The ideal run loop and the chaos frame ticks share one
        round-boundary sequence: flush unit i, then checkpoint unit i."""
        from repro.checkpoint import CheckpointConfig, RunCheckpointer
        from repro.telemetry import Telemetry

        calls = []
        flush_round = Telemetry.flush_round
        unit_complete = RunCheckpointer.unit_complete

        def spy_flush(self, index, *args):
            calls.append(("flush", index))
            return flush_round(self, index, *args)

        def spy_unit(self, position, *args):
            calls.append(("checkpoint", position))
            return unit_complete(self, position, *args)

        monkeypatch.setattr(Telemetry, "flush_round", spy_flush)
        monkeypatch.setattr(RunCheckpointer, "unit_complete", spy_unit)

        def assert_interleaved():
            units = len(calls) // 2
            assert units > 1
            assert calls == [
                (kind, unit)
                for unit in range(units)
                for kind in ("flush", "checkpoint")
            ]
            calls.clear()

        DeploymentEngine(
            runner1.context, telemetry=Telemetry(run_id="order")
        ).run(
            "full",
            budget=2.0,
            start=1000,
            end=2000,
            checkpointer=RunCheckpointer(
                CheckpointConfig(directory=tmp_path / "run")
            ),
        )
        assert_interleaved()
        network_spec(4).execute(
            engine=runner1,
            telemetry=Telemetry(run_id="order"),
            checkpointer=RunCheckpointer(
                CheckpointConfig(directory=tmp_path / "chaos")
            ),
        )
        assert_interleaved()

    def test_custom_executor_backend_is_bit_identical(self, runner1):
        """A user-supplied backend slots in without engine changes."""

        from repro.detection.batch import run_batch

        class ReversingExecutor(SerialDetectionExecutor):
            # Executes back-to-front, returns in order: order-dependence
            # in the engine would surface as a result drift.
            def execute(self, batch, detectors):
                results = [
                    run_batch(detectors, [task])[0]
                    for task in reversed(batch.tasks)
                ]
                results.reverse()
                return results

        baseline = runner1.run(
            "full", budget=2.0, start=1000, end=1300
        )
        swapped = DeploymentEngine(
            runner1.context, executor=ReversingExecutor()
        ).run("full", budget=2.0, start=1000, end=1300)
        assert vars(swapped) == vars(baseline)

    def test_shared_context_caches_by_config(self):
        from repro.core.config import EECSConfig
        from repro.engine import shared_context

        base = shared_context(1)
        assert shared_context(1) is base
        assert shared_context(1, train_seed=2018) is base
        other = shared_context(1, config=EECSConfig(gamma_n=0.9))
        assert other is not base
