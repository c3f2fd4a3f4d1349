"""The perfbench chaos shim spells exactly one networked spec.

``perfbench/workloads.py`` still builds its chaos deployments through
``ChaosSpec`` and ``run_chaos``.  This test pins both to the
``DeploymentSpec(network=True, ...)`` they stand for, field by field,
so the shim cannot drift from the one entry point.  It is the only
test allowed to import them (``tests/test_layer_contract.py``).
"""

from repro.checkpoint import CheckpointConfig, RunCheckpointer
from repro.engine.spec import DeploymentSpec
from repro.experiments.faults import ChaosSpec, run_chaos
from repro.resilience.ladder import ResilienceConfig
from repro.telemetry import Telemetry
from tests.golden_utils import network_horizon_s

SEED = 11
FRAMES = 8

#: The nine keywords perfbench passes (its frame count shortened).
PERFBENCH_KWARGS = {
    "dataset_number": 1,
    "loss_rate": 0.2,
    "crash_count": 1,
    "sensor_noise": 0.3,
    "fault_camera_count": 1,
    "num_frames": FRAMES,
    "budget": 2.0,
    "seed": SEED,
    "resilience": ResilienceConfig(enabled=True, seed=SEED),
}

DIRECT = DeploymentSpec(
    dataset_number=1,
    network=True,
    start=1000,
    end=1000 + 25 * FRAMES,
    budget=2.0,
    seed=SEED,
    resilience=ResilienceConfig(enabled=True, seed=SEED),
    loss_rate=0.2,
    crash_count=1,
    sensor_noise=0.3,
    fault_camera_count=1,
)


def test_shim_spells_the_direct_spec(runner1, tmp_path):
    shim = ChaosSpec(**PERFBENCH_KWARGS)
    assert shim.to_spec() == DIRECT
    assert shim.horizon_s == network_horizon_s(FRAMES)
    assert shim.seconds_per_frame == runner1.config.seconds_per_frame

    via_shim = run_chaos(
        shim,
        runner1,
        telemetry=Telemetry(run_id="shim"),
        checkpoint=CheckpointConfig(directory=tmp_path / "shim", every=1),
    )
    direct = DIRECT.execute(
        engine=runner1,
        telemetry=Telemetry(run_id="direct"),
        checkpointer=RunCheckpointer(
            CheckpointConfig(directory=tmp_path / "direct", every=1)
        ),
    )
    assert vars(via_shim) == vars(direct)
    assert (tmp_path / "shim" / "checkpoint.json").read_text() == (
        tmp_path / "direct" / "checkpoint.json"
    ).read_text()
