"""Crash-safe checkpoint/resume: store, codec, hooks, and the
kill-and-resume golden equivalence.

The tentpole guarantee under test: a deployment killed at a checkpoint
and resumed in a fresh engine finishes **bit-identically** to one that
was never interrupted — pinned against the same ``tests/goldens/``
fixtures the engine-refactor regression uses, for all four
coordination policies and both chaos configurations.
"""

import json
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointInterrupted,
    CheckpointStore,
    RunCheckpointer,
    SimulatedCrash,
)
from repro.checkpoint.codec import decision_from_dict, decision_to_dict
from repro.checkpoint.store import document_header
from repro.core.accuracy import DesiredAccuracy, GlobalAccuracy
from repro.core.controller import SelectionDecision
from repro.ioutils import atomic_write_json
from tests.golden_utils import (
    GOLDEN_CHAOS_CONFIGS,
    chaos_result_fingerprint,
    golden_run_configs,
    load_golden,
    make_golden_runner,
    network_spec,
    run_result_fingerprint,
)


def normalize(fingerprint):
    return json.loads(json.dumps(fingerprint))


def resume_from(directory):
    """A checkpointer that resumes from ``directory``'s snapshot."""
    return RunCheckpointer(CheckpointConfig(directory=directory, resume=True))


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class TestCheckpointStore:
    FP = {"policy": "full", "seed": 7, "window": [1000, 1300]}

    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.save(
            document_header("run", self.FP), {"next_round": 2, "x": 0.1 + 0.2}
        )
        assert store.load("run", self.FP) == {
            "next_round": 2,
            "x": 0.1 + 0.2,  # doubles survive JSON exactly
        }

    def test_missing_checkpoint_is_fresh_start(self, tmp_path):
        assert CheckpointStore(tmp_path).load("run", self.FP) is None

    def test_fingerprint_mismatch_names_fields(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(document_header("run", self.FP), {"next_round": 1})
        other = dict(self.FP, seed=8, policy="subset")
        with pytest.raises(CheckpointError, match="policy, seed"):
            store.load("run", other)

    def test_kind_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(document_header("run", self.FP), {"next_round": 1})
        with pytest.raises(CheckpointError, match="kind"):
            store.load("chaos", self.FP)

    def test_wrong_schema_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path.write_text(json.dumps({"schema": "repro.checkpoint.v0"}))
        with pytest.raises(CheckpointError, match="schema"):
            store.load("run", self.FP)

    def test_v1_document_rejected_naming_v1(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path.write_text(json.dumps({
            "schema": "repro.checkpoint.v1",
            "kind": "run",
            "fingerprint": self.FP,
            "state": {"next_round": 1},
        }))
        with pytest.raises(CheckpointError, match=r"checkpoint\.v1.*--resume"):
            store.load("run", self.FP)

    @pytest.mark.parametrize("document", [[1, 2], "v2", 3, None])
    def test_non_object_document_rejected(self, tmp_path, document):
        store = CheckpointStore(tmp_path)
        store.path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="not an object"):
            store.load("run", self.FP)

    def test_document_is_compact(self, tmp_path):
        """One line, sorted keys: the C encoder's output."""
        store = CheckpointStore(tmp_path)
        store.save(
            document_header("run", self.FP),
            {"b": [1, 2], "a": {"y": 1, "x": 2}},
        )
        text = store.path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert json.loads(text)["schema"] == "repro.checkpoint.v2"

    def test_corrupt_json_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.directory.mkdir(exist_ok=True)
        store.path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load("run", self.FP)

    def test_tuple_fingerprint_matches_disk_form(self, tmp_path):
        """In-memory tuples must compare equal to their JSON arrays."""
        store = CheckpointStore(tmp_path)
        store.save(
            document_header("run", {"entropy": (1, 2, 3)}), {"next_round": 1}
        )
        assert store.load("run", {"entropy": [1, 2, 3]}) is not None


# ----------------------------------------------------------------------
# Atomic writes (satellite bugfix)
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_interrupted_write_preserves_previous_file(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write must leave the old contents, not a torn
        file."""
        path = tmp_path / "out.json"
        atomic_write_json(path, {"generation": 1})

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(path, {"generation": 2})
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"generation": 1}
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert not leftovers, f"temp files leaked: {leftovers}"

    def test_checkpoint_save_is_atomic(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        store.save(document_header("run", {"seed": 1}), {"next_round": 3})

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.save(document_header("run", {"seed": 1}), {"next_round": 4})
        monkeypatch.undo()
        assert store.load("run", {"seed": 1}) == {"next_round": 3}


# ----------------------------------------------------------------------
# Codec round-trips (property-based)
# ----------------------------------------------------------------------
#: GlobalAccuracy/DesiredAccuracy validate their fields: object counts
#: are non-negative, probabilities live in [0, 1].
objects = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
accuracy = st.tuples(objects, probability)


class TestDecisionRoundTrip:
    @given(
        num_active=st.integers(1, 4),
        baseline=accuracy,
        desired=accuracy,
        achieved=accuracy,
    )
    @settings(max_examples=50, deadline=None)
    def test_decision_survives_json(
        self, num_active, baseline, desired, achieved
    ):
        cameras = [f"cam{i}" for i in range(num_active)]
        decision = SelectionDecision(
            assignment={c: "HOG" for c in cameras},
            baseline=GlobalAccuracy(*baseline),
            desired=DesiredAccuracy(*desired),
            achieved=GlobalAccuracy(*achieved),
            ranked_camera_ids=list(reversed(cameras)),
        )
        payload = json.loads(json.dumps(decision_to_dict(decision)))
        restored = decision_from_dict(payload)
        assert decision_to_dict(restored) == decision_to_dict(decision)


# ----------------------------------------------------------------------
# Hooks: cadence, crash injection, SIGTERM
# ----------------------------------------------------------------------
class TestRunCheckpointer:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            CheckpointConfig(directory=tmp_path, every=0)
        with pytest.raises(ValueError, match="crash_after"):
            CheckpointConfig(directory=tmp_path, crash_after=-1)

    def test_cadence_skips_off_beat_and_final_units(self, tmp_path):
        ck = RunCheckpointer(CheckpointConfig(directory=tmp_path, every=2))
        ck.begin("run", {"seed": 1})
        saved = []
        for position in range(5):
            ck.unit_complete(
                position, 5, lambda p=position: saved.append(p) or {"at": p}
            )
        ck.finish()
        # completed counts 2 and 4 are due; 5 == total is the finished
        # run, which needs no checkpoint.
        assert saved == [1, 3]

    def test_fingerprint_normalised_once_per_run(self, tmp_path, monkeypatch):
        """Every save writes the fingerprint ``begin`` normalised; the
        document holds its JSON form (tuples as lists)."""
        from repro.checkpoint import hooks

        calls = []
        normalize = hooks.normalize_fingerprint
        monkeypatch.setattr(
            hooks,
            "normalize_fingerprint",
            lambda value: calls.append(value) or normalize(value),
        )
        ck = RunCheckpointer(CheckpointConfig(directory=tmp_path))
        ck.begin("run", {"seed": 1, "window": (1000, 1300)})
        for position in range(4):
            ck.unit_complete(position, 5, lambda: {"at": position})
        ck.finish()
        assert len(calls) == 1
        document = json.loads((tmp_path / "checkpoint.json").read_text())
        assert document["fingerprint"] == {"seed": 1, "window": [1000, 1300]}

    def test_crash_after_writes_then_raises(self, tmp_path):
        ck = RunCheckpointer(
            CheckpointConfig(directory=tmp_path, crash_after=2)
        )
        ck.begin("run", {"seed": 1})
        for position in range(2):
            ck.unit_complete(position, 9, lambda: {"pos": position})
        with pytest.raises(SimulatedCrash) as info:
            ck.unit_complete(2, 9, lambda: {"pos": 2})
        ck.finish()
        assert info.value.position == 2
        assert ck.store.load("run", {"seed": 1}) == {"pos": 2}

    def test_sigterm_checkpoints_at_next_boundary(self, tmp_path):
        ck = RunCheckpointer(
            CheckpointConfig(directory=tmp_path, every=100)
        )
        previous = signal.getsignal(signal.SIGTERM)
        ck.begin("run", {"seed": 1})
        try:
            ck.unit_complete(0, 10, lambda: {"pos": 0})
            signal.raise_signal(signal.SIGTERM)  # orchestrator shutdown
            with pytest.raises(CheckpointInterrupted) as info:
                ck.unit_complete(1, 10, lambda: {"pos": 1})
        finally:
            ck.finish()
        assert info.value.position == 1
        assert ck.store.load("run", {"seed": 1}) == {"pos": 1}
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_resume_with_empty_directory_starts_fresh(self, tmp_path):
        ck = RunCheckpointer(
            CheckpointConfig(directory=tmp_path, resume=True)
        )
        assert ck.begin("run", {"seed": 1}) is None
        ck.finish()


# ----------------------------------------------------------------------
# Kill-and-resume golden equivalence (the tentpole guarantee)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def crashed_runner():
    """The engine that dies — same construction as the goldens."""
    return make_golden_runner()


@pytest.fixture(scope="module")
def fresh_runner():
    """A separate engine standing in for the restarted process."""
    return make_golden_runner()


@pytest.fixture(scope="module")
def run_goldens():
    return load_golden("run_results")


@pytest.fixture(scope="module")
def chaos_goldens():
    return load_golden("chaos_results")


def engine_run(runner, config, checkpointer):
    return runner.run(checkpointer=checkpointer, **config)


class TestRunKillAndResume:
    @pytest.mark.parametrize(
        "name", ["all_best", "subset", "full", "fixed"]
    )
    def test_resumed_run_matches_golden(
        self, crashed_runner, fresh_runner, run_goldens, tmp_path, name
    ):
        """Crash after the checkpoint, resume in a fresh engine, and
        the completed result is bit-identical to the uninterrupted
        golden — every RunResult field, floats by exact equality."""
        configs = golden_run_configs(crashed_runner.dataset.camera_ids)
        with pytest.raises(SimulatedCrash):
            engine_run(
                crashed_runner,
                configs[name],
                RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=0)
                ),
            )
        resumed = engine_run(
            fresh_runner,
            configs[name],
            RunCheckpointer(
                CheckpointConfig(directory=tmp_path, resume=True)
            ),
        )
        assert normalize(run_result_fingerprint(resumed)) == (
            run_goldens[name]
        ), f"resumed {name!r} run drifted from the golden"

    def test_mismatched_config_refuses_resume(
        self, fresh_runner, tmp_path
    ):
        configs = golden_run_configs(fresh_runner.dataset.camera_ids)
        with pytest.raises(SimulatedCrash):
            engine_run(
                fresh_runner,
                configs["full"],
                RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=0)
                ),
            )
        with pytest.raises(CheckpointError, match="different run"):
            engine_run(
                fresh_runner,
                configs["all_best"],
                RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, resume=True)
                ),
            )


class TestMultiRoundResume:
    """Mid-run resume with partial accumulators: a smaller
    re-calibration interval gives the golden window three rounds, so
    the checkpoint is taken with genuinely in-flight state."""

    @pytest.fixture(scope="class")
    def config(self):
        from repro.core.config import EECSConfig

        return EECSConfig(recalibration_interval=100)

    @pytest.fixture(scope="class")
    def spec_kwargs(self):
        return dict(
            dataset_number=1,
            policy="full",
            start=1000,
            end=1300,
            seed=11,
        )

    @pytest.fixture(scope="class")
    def reference(self, config, spec_kwargs):
        from repro.engine.spec import DeploymentSpec

        result = DeploymentSpec(**spec_kwargs).execute(config=config)
        assert len(result.decisions) == 3, "window should span 3 rounds"
        return normalize(run_result_fingerprint(result))

    def test_resume_after_second_round(
        self, config, spec_kwargs, reference, tmp_path
    ):
        from repro.engine.spec import DeploymentSpec

        with pytest.raises(SimulatedCrash) as info:
            DeploymentSpec(**spec_kwargs).execute(
                config=config,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=1)
                ),
            )
        assert info.value.position == 1
        resumed = DeploymentSpec(**spec_kwargs).execute(
            config=config, checkpointer=resume_from(tmp_path)
        )
        assert normalize(run_result_fingerprint(resumed)) == reference

    def test_checkpoint_with_run_generator_state_resumes(
        self, config, spec_kwargs, reference, tmp_path
    ):
        """Engines that kept a run generator wrote its bit-generator
        state under ``"rng"``, right after ``"clock"``, in the same
        ``repro.checkpoint.v2`` document.  Such a checkpoint still
        resumes bit-identically: no run reads that key."""
        from repro.engine.spec import DeploymentSpec

        with pytest.raises(SimulatedCrash):
            DeploymentSpec(**spec_kwargs).execute(
                config=config,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=1)
                ),
            )
        store = CheckpointStore(tmp_path)
        document = json.loads(store.path.read_text())
        assert document["schema"] == "repro.checkpoint.v2"
        assert "rng" not in document["state"]
        with_rng = {}
        for key, value in document["state"].items():
            with_rng[key] = value
            if key == "clock":
                with_rng["rng"] = np.random.default_rng(
                    spec_kwargs["seed"]
                ).bit_generator.state
        document["state"] = with_rng
        store.path.write_text(json.dumps(document, separators=(",", ":")))
        resumed = DeploymentSpec(**spec_kwargs).execute(
            config=config, checkpointer=resume_from(tmp_path)
        )
        assert normalize(run_result_fingerprint(resumed)) == reference


class TestChaosKillAndResume:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CHAOS_CONFIGS))
    def test_replay_resume_matches_golden(
        self, crashed_runner, fresh_runner, chaos_goldens, tmp_path, name
    ):
        """Kill the event-driven run mid-flight; the resumed
        (seeded-replay) run must match the uninterrupted golden and
        pass the recorded-digest verification."""
        spec = network_spec(**GOLDEN_CHAOS_CONFIGS[name])
        with pytest.raises(SimulatedCrash):
            spec.execute(
                engine=crashed_runner,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(
                        directory=tmp_path, every=2, crash_after=5
                    )
                ),
            )
        resumed = network_spec(**GOLDEN_CHAOS_CONFIGS[name]).execute(
            engine=fresh_runner, checkpointer=resume_from(tmp_path)
        )
        assert normalize(chaos_result_fingerprint(resumed)) == (
            chaos_goldens[name]
        ), f"resumed chaos run {name!r} drifted from the golden"

    def test_divergent_replay_is_rejected(
        self, fresh_runner, tmp_path
    ):
        """Tampering with the recorded fault-log digest must fail the
        replay verification instead of resuming silently."""
        spec = network_spec(**GOLDEN_CHAOS_CONFIGS["faulty"])
        with pytest.raises(SimulatedCrash):
            spec.execute(
                engine=fresh_runner,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=8)
                ),
            )
        store = CheckpointStore(tmp_path)
        document = json.loads(store.path.read_text())
        state = document["state"]
        assert state["injector"]["faults_logged"] > 0, (
            "the faulty golden should have faults before the crash"
        )
        digest = state["fault_log_sha256"]
        state["fault_log_sha256"] = (
            "0" if digest[0] != "0" else "1"
        ) + digest[1:]
        store.path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="diverges"):
            resume_faulty_chaos(fresh_runner, tmp_path)


def crash_chaos(runner, directory, crash_after, **overrides):
    """Kill a ``faulty``-golden chaos run after tick ``crash_after``;
    returns the checkpoint document it left behind."""
    spec = network_spec(**dict(GOLDEN_CHAOS_CONFIGS["faulty"], **overrides))
    with pytest.raises(SimulatedCrash):
        spec.execute(
            engine=runner,
            checkpointer=RunCheckpointer(
                CheckpointConfig(directory=directory, crash_after=crash_after)
            ),
        )
    return json.loads(CheckpointStore(directory).path.read_text())


def resume_faulty_chaos(runner, directory):
    return network_spec(**GOLDEN_CHAOS_CONFIGS["faulty"]).execute(
        engine=runner, checkpointer=resume_from(directory)
    )


class TestChaosCheckpointV2:
    """The chaos checkpoint carries replay markers only."""

    #: Every key a chaos state may hold: what the replay verifier reads
    #: (``battery_by_camera`` is also read by the benchmark's checks).
    ALLOWED_KEYS = {
        "sim_now",
        "battery_by_camera",
        "injector",
        "fault_log_sha256",
        "recovery_log_sha256",
        "delivered_messages",
        "dropped_messages",
        "num_decisions",
        "operational_metadata",
    }

    def test_state_keys_are_exactly_the_replay_markers(
        self, fresh_runner, tmp_path
    ):
        document = crash_chaos(fresh_runner, tmp_path, crash_after=8)
        assert document["schema"] == "repro.checkpoint.v2"
        assert set(document["state"]) == self.ALLOWED_KEYS

    def test_checkpoint_size_does_not_grow_with_ticks(
        self, fresh_runner, tmp_path
    ):
        """The markers have a fixed size, so a late checkpoint is the
        size of an early one."""
        sizes = {}
        for crash_after in (5, 60):
            directory = tmp_path / str(crash_after)
            crash_chaos(fresh_runner, directory, crash_after, frames=60)
            sizes[crash_after] = CheckpointStore(directory).path.stat().st_size
        assert abs(sizes[60] - sizes[5]) <= 64, sizes

    @pytest.mark.parametrize("key", sorted(ALLOWED_KEYS - {"battery_by_camera"}))
    def test_missing_replay_marker_is_rejected(
        self, fresh_runner, tmp_path, key
    ):
        document = crash_chaos(fresh_runner, tmp_path, crash_after=8)
        del document["state"][key]
        CheckpointStore(tmp_path).path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match=f"lacks replay markers: {key}"):
            resume_faulty_chaos(fresh_runner, tmp_path)

    def test_fault_count_beyond_replay_is_rejected(
        self, fresh_runner, tmp_path
    ):
        document = crash_chaos(fresh_runner, tmp_path, crash_after=8)
        document["state"]["injector"]["faults_logged"] += 1000
        CheckpointStore(tmp_path).path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="fault log has"):
            resume_faulty_chaos(fresh_runner, tmp_path)

    def test_counter_beyond_replay_is_rejected(self, fresh_runner, tmp_path):
        document = crash_chaos(fresh_runner, tmp_path, crash_after=8)
        document["state"]["num_decisions"] += 1000
        CheckpointStore(tmp_path).path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="fell short.*num_decisions"):
            resume_faulty_chaos(fresh_runner, tmp_path)

    def test_v1_checkpoint_refuses_resume(self, fresh_runner, tmp_path):
        document = crash_chaos(fresh_runner, tmp_path, crash_after=8)
        document["schema"] = "repro.checkpoint.v1"
        CheckpointStore(tmp_path).path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match=r"checkpoint\.v1"):
            resume_faulty_chaos(fresh_runner, tmp_path)
