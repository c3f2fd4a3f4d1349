"""Golden regression: the engine refactor is bit-identical.

The fixtures under ``tests/goldens/`` were captured from the
pre-refactor runner/chaos implementations (see
``golden_utils.capture``).  These tests re-run the same configurations
through the unified deployment engine and compare every ``RunResult``
/ ``NetworkOutcome`` field — floats by exact equality, since JSON
round-trips Python doubles exactly.
``TestTrainingGoldens`` pins offline training the same way: the
trained libraries of datasets 1-3 (``training_results.json``).

If one of these fails, the engine's behaviour has drifted from the
historical implementation; that is a bug in the change, not in the
fixture.  Regenerate goldens (``python tests/golden_utils.py``) only
for a change that *intends* to alter simulation output.
"""

import json

import pytest

from tests.golden_utils import (
    GOLDEN_CHAOS_CONFIGS,
    TRAINING_DATASETS,
    chaos_result_fingerprint,
    collect_chaos_goldens,
    golden_run_configs,
    load_golden,
    make_golden_runner,
    network_spec,
    run_result_fingerprint,
    training_fingerprint,
)


def normalize(fingerprint):
    """Match the storage representation (tuples become JSON arrays)."""
    return json.loads(json.dumps(fingerprint))


@pytest.fixture(scope="module")
def golden_runner():
    return make_golden_runner()


@pytest.fixture(scope="module")
def run_goldens():
    return load_golden("run_results")


@pytest.fixture(scope="module")
def chaos_goldens():
    return load_golden("chaos_results")


class TestRunGoldens:
    @pytest.mark.parametrize(
        "name", ["all_best", "subset", "full", "fixed"]
    )
    def test_serial_matches_golden(self, golden_runner, run_goldens, name):
        configs = golden_run_configs(golden_runner.dataset.camera_ids)
        result = golden_runner.run(**configs[name])
        fingerprint = normalize(run_result_fingerprint(result))
        assert fingerprint == run_goldens[name], (
            f"policy {name!r} drifted from the pre-refactor golden"
        )

    def test_every_field_compared(self, golden_runner, run_goldens):
        """The fingerprint covers the whole public RunResult surface."""
        configs = golden_run_configs(golden_runner.dataset.camera_ids)
        result = golden_runner.run(**configs["full"])
        missing = set(vars(result)) - set(run_result_fingerprint(result))
        assert not missing, f"fields not pinned by the golden: {missing}"


class TestChaosGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CHAOS_CONFIGS))
    def test_matches_golden(self, golden_runner, chaos_goldens, name):
        fingerprints = collect_chaos_goldens(golden_runner)
        assert normalize(fingerprints[name]) == chaos_goldens[name], (
            f"chaos config {name!r} drifted from the pre-refactor golden"
        )

    def test_every_field_compared(self, golden_runner):
        result = network_spec(**GOLDEN_CHAOS_CONFIGS["zero_fault"]).execute(
            engine=golden_runner
        )
        fingerprint = chaos_result_fingerprint(result)
        missing = set(vars(result)) - set(fingerprint)
        assert not missing, f"fields not pinned by the golden: {missing}"


class TestTrainingGoldens:
    @pytest.mark.parametrize("number", TRAINING_DATASETS)
    def test_trained_library_matches_golden(self, number):
        """Offline training (detection draws, threshold sweep, score
        calibration) reproduces every profile to the last bit."""
        from repro.engine.context import shared_context

        library = shared_context(number).library
        assert training_fingerprint(library) == (
            load_golden("training_results")[str(number)]
        ), f"dataset {number}'s trained library drifted from the golden"
