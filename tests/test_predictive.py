"""The predictive wake-up layer and policy.

Contract under test, in layer order:

* ``repro.predictive`` — RLS regressors learn, snapshot/restore is
  exact (pure-Python floats survive JSON), config validation fails
  fast;
* policy registration — ``predictive`` shares ``subset``'s entropy
  stream, and a warmup longer than the run reproduces ``subset``
  **bit for bit**;
* the wake gate — skipping saves energy, rationing caps concurrent
  sleepers, quorum never sleeps the whole fleet, and every decision
  is auditable through ``camera_wake``/``camera_skip`` events;
* checkpointing — kill-and-resume with live regressor state finishes
  bit-identically, and a resume under different wake tunables is
  refused;
* spec/CLI validation — predictive tunables without the predictive
  policy are an error at construction.
"""

import json

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    RunCheckpointer,
    SimulatedCrash,
)
from repro.checkpoint.codec import run_result_to_dict
from repro.core.config import EECSConfig
from repro.engine import (
    DeploymentEngine,
    DeploymentSpec,
    available_policies,
    resolve_policy,
    shared_context,
)
from repro.engine.predictive import PredictivePolicy
from repro.predictive import (
    ActivityPredictor,
    PredictiveConfig,
    PredictorBank,
    RecursiveLeastSquares,
    camera_activity,
)
from repro.telemetry import Telemetry

#: Short rounds so warmup, probing and rationing all cycle within a
#: sub-second dataset-1 window.
CONFIG = EECSConfig(assessment_period=50, recalibration_interval=100)
WINDOW = dict(start=1000, end=1600)  # 6 rounds
#: Above every camera's observed activity: with this threshold every
#: warmed-up camera wants to sleep, so rationing/probing/quorum fully
#: govern the schedule.
SLEEPY = dict(wake_threshold=9.0, predictor_warmup=2, probe_every=4)


@pytest.fixture(scope="module")
def context():
    return shared_context(1, config=CONFIG)


def run_predictive(context, wake: PredictiveConfig, telemetry=None):
    engine = DeploymentEngine(context, seed=2017, telemetry=telemetry)
    return engine.run(PredictivePolicy(wake), budget=2.0, **WINDOW)


# ----------------------------------------------------------------------
# repro.predictive: regressors
# ----------------------------------------------------------------------
class TestRecursiveLeastSquares:
    def test_learns_a_linear_map(self):
        rls = RecursiveLeastSquares(3, forgetting=1.0)
        target = [1.0, 2.0, -0.5]
        for i in range(200):
            x = [1.0, (i % 7) / 7.0, (i % 11) / 11.0]
            y = sum(w * f for w, f in zip(target, x))
            rls.update(x, y)
        probe = [1.0, 0.3, 0.6]
        want = sum(w * f for w, f in zip(target, probe))
        # The delta*I prior leaves a small regularization bias.
        assert rls.predict(probe) == pytest.approx(want, abs=0.01)

    def test_snapshot_restore_is_exact_through_json(self):
        rls = RecursiveLeastSquares(3, forgetting=0.9, seed=7)
        for i in range(20):
            rls.update([1.0, i / 20.0, (i % 3) / 3.0], float(i % 5))
        state = json.loads(json.dumps(rls.snapshot()))
        fresh = RecursiveLeastSquares(3, forgetting=0.9)
        fresh.restore(state)
        probe = [1.0, 0.25, 0.75]
        assert fresh.predict(probe) == rls.predict(probe)
        # and they stay in lockstep after further updates
        rls.update(probe, 2.0)
        fresh.update(probe, 2.0)
        assert fresh.predict(probe) == rls.predict(probe)


class TestActivityPredictor:
    def test_warmup_gates_readiness(self):
        predictor = ActivityPredictor(seed=3)
        assert predictor.predict_next() is None
        assert not predictor.ready(2)
        predictor.observe(3.0, 0.8)
        assert not predictor.ready(2)
        predictor.observe(4.0, 0.7)
        assert predictor.ready(2)
        assert predictor.predict_next() >= 0.0

    def test_tracks_a_constant_signal(self):
        predictor = ActivityPredictor(seed=3)
        for _ in range(30):
            predictor.observe(5.0, 0.9)
        assert predictor.predict_next() == pytest.approx(5.0, abs=0.1)

    def test_bank_snapshot_round_trips_per_camera(self):
        bank = PredictorBank(["a", "b"], seed=11)
        for i in range(5):
            bank.predictor("a").observe(float(i), 0.5)
        bank.predictor("b").observe(2.0, 0.9)
        state = json.loads(json.dumps(bank.snapshot()))
        assert set(state) == {"a", "b"}
        fresh = PredictorBank(["a", "b"], seed=11)
        fresh.restore(state)
        for camera in ("a", "b"):
            assert fresh.predictor(camera).predict_next() == (
                bank.predictor(camera).predict_next()
            )

    def test_seeds_differ_per_camera(self):
        bank = PredictorBank(["a", "b"], seed=11)
        assert bank.predictor("a").snapshot() != (
            bank.predictor("b").snapshot()
        )


class TestPredictiveConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(wake_threshold=-0.1),
            dict(predictor_warmup=0),
            dict(probe_every=0),
            dict(max_sleepers=0),
            dict(low_energy_below=0.0),
            dict(forgetting=0.0),
            dict(forgetting=1.5),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            PredictiveConfig(**bad)

    def test_from_overrides_zero_spells_uncapped(self):
        assert PredictiveConfig.from_overrides(
            max_sleepers=0
        ).max_sleepers is None
        assert PredictiveConfig.from_overrides().max_sleepers == (
            PredictiveConfig().max_sleepers
        )

    def test_to_dict_is_json_ready(self):
        payload = PredictiveConfig().to_dict()
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# Registration and the subset-equivalence guarantee
# ----------------------------------------------------------------------
class TestRegistration:
    def test_registered(self):
        assert "predictive" in available_policies()
        assert isinstance(
            resolve_policy("predictive"), PredictivePolicy
        )

    def test_shares_subset_entropy_stream(self):
        assert PredictivePolicy.entropy_alias == "subset"
        assert resolve_policy("predictive").entropy_token() == (
            resolve_policy("subset").entropy_token()
        )


class TestWarmupOnlyReproducesSubset:
    def test_bit_identical_modulo_mode(self, context):
        subset = DeploymentSpec(
            dataset_number=1, policy="subset", budget=2.0,
            seed=2017, **WINDOW,
        ).execute(config=CONFIG)
        # A warmup longer than the run never skips: same rng stream,
        # same assessments, same selections — subset, bit for bit.
        predictive = DeploymentSpec(
            dataset_number=1, policy="predictive", budget=2.0,
            seed=2017, predictor_warmup=10_000, **WINDOW,
        ).execute(config=CONFIG)
        a = run_result_to_dict(subset)
        b = run_result_to_dict(predictive)
        assert a.pop("mode") == "subset"
        assert b.pop("mode") == "predictive"
        assert a == b


# ----------------------------------------------------------------------
# The wake gate
# ----------------------------------------------------------------------
class TestWakeGate:
    @pytest.fixture(scope="class")
    def sleepy_run(self, context):
        telemetry = Telemetry(run_id="wake")
        result = run_predictive(
            context,
            PredictiveConfig(max_sleepers=1, **SLEEPY),
            telemetry=telemetry,
        )
        return result, telemetry

    def test_skipping_saves_energy(self, context, sleepy_run):
        engine = DeploymentEngine(context, seed=2017)
        subset = engine.run("subset", budget=2.0, **WINDOW)
        result, _ = sleepy_run
        assert result.energy_joules < subset.energy_joules
        assert result.humans_present == subset.humans_present
        assert result.humans_detected > 0

    def test_every_camera_gets_an_event_every_round(
        self, context, sleepy_run
    ):
        _, telemetry = sleepy_run
        rounds = 6
        cameras = len(context.dataset.camera_ids)
        wakes = telemetry.events.by_kind("camera_wake")
        skips = telemetry.events.by_kind("camera_skip")
        assert len(wakes) + len(skips) == rounds * cameras
        assert skips, "sleepy config never slept"
        assert {e.detail["reason"] for e in skips} == {"predicted_idle"}
        assert {e.detail["reason"] for e in wakes} <= {
            "warmup", "probe", "predicted_active", "rationed", "quorum",
        }
        for event in wakes + skips:
            assert event.node_id in context.dataset.camera_ids
            assert event.detail["threshold"] == 9.0

    def test_warmup_rounds_never_skip(self, sleepy_run):
        _, telemetry = sleepy_run
        skips = telemetry.events.by_kind("camera_skip")
        assert min(e.detail["round"] for e in skips) >= 2

    def test_rationing_caps_concurrent_sleepers(self, sleepy_run):
        _, telemetry = sleepy_run
        by_round: dict[int, int] = {}
        for event in telemetry.events.by_kind("camera_skip"):
            by_round[event.detail["round"]] = (
                by_round.get(event.detail["round"], 0) + 1
            )
        assert by_round, "no round slept"
        assert max(by_round.values()) <= 1
        rationed = [
            e
            for e in telemetry.events.by_kind("camera_wake")
            if e.detail["reason"] == "rationed"
        ]
        assert rationed, "cap never had to ration"

    def test_quorum_rescues_the_last_camera(self, context):
        telemetry = Telemetry(run_id="quorum")
        # Uncapped, never probing: after warmup every camera wants to
        # sleep every round, so quorum must carry the fleet alone.
        run_predictive(
            context,
            PredictiveConfig(
                wake_threshold=9.0,
                predictor_warmup=2,
                probe_every=10_000,
                max_sleepers=None,
            ),
            telemetry=telemetry,
        )
        wakes = telemetry.events.by_kind("camera_wake")
        quorum = [e for e in wakes if e.detail["reason"] == "quorum"]
        assert quorum, "quorum rescue never triggered"
        cameras = len(context.dataset.camera_ids)
        for event in quorum:
            round_index = event.detail["round"]
            awake = [
                e for e in wakes if e.detail["round"] == round_index
            ]
            assert len(awake) == 1
            skips = [
                e
                for e in telemetry.events.by_kind("camera_skip")
                if e.detail["round"] == round_index
            ]
            assert len(skips) == cameras - 1

    def test_low_energy_downgrade_emits_and_saves(self, context):
        telemetry = Telemetry(run_id="cheap")
        # Never sleep (threshold 0) but downgrade everything the
        # regressors consider quiet relative to a huge bar: the
        # PCA-RECT-style companion profile path.
        cheap = run_predictive(
            context,
            PredictiveConfig(
                wake_threshold=0.0,
                predictor_warmup=2,
                low_energy_below=9.0,
            ),
            telemetry=telemetry,
        )
        downgrades = telemetry.events.by_kind("camera_low_energy")
        assert downgrades, "low-energy gate never fired"
        for event in downgrades:
            assert event.detail["algorithm"] != event.detail["previous"]
        engine = DeploymentEngine(context, seed=2017)
        subset = engine.run("subset", budget=2.0, **WINDOW)
        assert cheap.energy_joules < subset.energy_joules

    def test_observations_come_from_assessments(self, context):
        """The feature extractor reads the same assessment the
        controller ranks — an unassessed camera yields None."""
        from repro.energy.meter import EnergyMeter

        engine = DeploymentEngine(context, seed=2017)
        records = context.dataset.frames(1000, 1100, only_ground_truth=True)
        assessment = engine.collect_assessment(
            records[:2], 2.0, EnergyMeter()
        )
        for camera_id in assessment.camera_ids:
            activity, score = camera_activity(assessment, camera_id)
            assert activity >= 0.0
            assert 0.0 <= score <= 1.0
        assert camera_activity(assessment, "no-such-camera") is None


# ----------------------------------------------------------------------
# Checkpoint participation
# ----------------------------------------------------------------------
class TestCheckpointResume:
    SPEC = dict(
        dataset_number=1, policy="predictive", budget=2.0, seed=2017,
        wake_threshold=9.0, predictor_warmup=2, wake_probe_every=4,
        max_sleepers=1, **WINDOW,
    )

    def test_kill_and_resume_is_bit_identical(self, context, tmp_path):
        reference = DeploymentSpec(**self.SPEC).execute(config=CONFIG)
        # Crash after round 2: the checkpoint carries warmed-up
        # regressors and non-zero sleep counters.
        with pytest.raises(SimulatedCrash):
            DeploymentSpec(**self.SPEC).execute(
                config=CONFIG,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=2)
                ),
            )
        resumed = DeploymentSpec(**self.SPEC).execute(
            config=CONFIG,
            checkpointer=RunCheckpointer(
                CheckpointConfig(directory=tmp_path, resume=True)
            ),
        )
        assert run_result_to_dict(resumed) == run_result_to_dict(
            reference
        )

    def test_resume_under_different_wake_config_is_refused(
        self, tmp_path
    ):
        with pytest.raises(SimulatedCrash):
            DeploymentSpec(**self.SPEC).execute(
                config=CONFIG,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=1)
                ),
            )
        retuned = dict(self.SPEC, wake_threshold=1.0)
        with pytest.raises(CheckpointError, match="different run"):
            DeploymentSpec(**retuned).execute(
                config=CONFIG,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, resume=True)
                ),
            )

    def test_policy_snapshot_survives_json(self):
        policy = PredictivePolicy(PredictiveConfig())
        assert policy.snapshot_state() is None  # nothing to save yet
        bank = PredictorBank(["a", "b"], seed=5)
        bank.predictor("a").observe(1.0, 0.5)
        policy._bank = bank
        policy._sleep = {"a": 0, "b": 3}
        state = json.loads(json.dumps(policy.snapshot_state()))
        fresh = PredictivePolicy(PredictiveConfig())
        fresh.restore_state(state)
        assert fresh._sleep == {"a": 0, "b": 3}
        assert fresh._bank.predictor("a").predict_next() == (
            bank.predictor("a").predict_next()
        )


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_wake_tunables_require_predictive(self):
        with pytest.raises(ValueError, match="predictive"):
            DeploymentSpec(
                dataset_number=1, policy="subset", wake_threshold=1.0
            )

    def test_bad_wake_config_fails_at_construction(self):
        with pytest.raises(ValueError, match="predictor_warmup"):
            DeploymentSpec(
                dataset_number=1, policy="predictive",
                predictor_warmup=0,
            )

    def test_max_sleepers_zero_spells_uncapped(self):
        spec = DeploymentSpec(
            dataset_number=1, policy="predictive", max_sleepers=0
        )
        assert spec._predictive_config().max_sleepers is None

    def test_cli_flags_require_predictive_mode(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "run", "--dataset", "1", "--mode", "subset",
                "--wake-threshold", "1.0",
            ])
