"""A full sensor-network deployment over the discrete-event simulator.

Camera sensor nodes and the controller exchange the paper's actual
message types (feature uploads, energy reports, assessment requests,
detection metadata, algorithm assignments) across WiFi links with
finite bandwidth and per-byte radio energy.  The controller runs one
assessment round, decides the camera subset and algorithms, and the
cameras then operate under that assignment — all in simulated time.

Run:  python examples/networked_deployment.py
"""

import zlib

import numpy as np

from repro.datasets import make_dataset
from repro.energy.model import ProcessingEnergyModel
from repro.engine import DeploymentContext, DeploymentEngine
from repro.network import (
    CameraSensorNode,
    ControllerNode,
    EventSimulator,
    WirelessLink,
)


def main() -> None:
    print("Preparing dataset #1 and offline training ...")
    dataset = make_dataset(1)
    engine = DeploymentEngine(
        DeploymentContext.build(dataset, rng=np.random.default_rng(5))
    )
    env = dataset.environment
    energy_model = ProcessingEnergyModel(width=env.width, height=env.height)

    records = dataset.frames(1000, 2000, only_ground_truth=True)

    sim = EventSimulator()
    controller_node = ControllerNode(
        "controller", engine.controller, assessment_frames=4, budget=2.0
    )
    sim.register_node(controller_node)

    camera_nodes = {}
    thresholds_by_camera = {}
    for camera_id in dataset.camera_ids:
        item = engine.library.get(f"T-{camera_id}")
        thresholds = {
            name: profile.threshold
            for name, profile in item.profiles.items()
        }
        thresholds_by_camera[camera_id] = thresholds
        node = CameraSensorNode(
            node_id=camera_id,
            controller_id="controller",
            observations=[r.observation(camera_id) for r in records],
            detectors=engine.detectors,
            thresholds=thresholds,
            energy_model=energy_model,
            rng=np.random.default_rng(abs(zlib.crc32(camera_id.encode()))),
        )
        camera_nodes[camera_id] = node
        sim.register_node(node)
        sim.connect(
            camera_id,
            "controller",
            WirelessLink(bandwidth_bps=20e6, latency_s=0.004),
        )

    print("Startup: energy reports ...")
    for node in camera_nodes.values():
        node.start()
    sim.run()

    print("Assessment round: all affordable algorithms (budget 2 J) ...")
    budget = 2.0
    camera_algorithms = {}
    for camera_id in dataset.camera_ids:
        item = engine.library.get(f"T-{camera_id}")
        camera_algorithms[camera_id] = [
            p.algorithm
            for p in item.profiles.values()
            if p.energy_per_frame <= budget
        ]
    controller_node.start_assessment(camera_algorithms)
    sim.run()

    decision = controller_node.decisions[-1]
    print(f"  decision: {decision.assignment}")
    print(
        f"  baseline N*={decision.baseline.num_objects:.0f}, "
        f"P*={decision.baseline.mean_probability:.2f}; "
        f"achieved N={decision.achieved.num_objects:.0f}, "
        f"P={decision.achieved.mean_probability:.2f}"
    )

    print("Operation: 12 frames under the assignment ...")
    for _ in range(12):
        for node in camera_nodes.values():
            node.process_next_frame()
    sim.run()

    print()
    print(f"simulated time: {sim.now:.3f} s")
    print(f"messages delivered: {sim.delivered_messages}")
    print(f"bytes transferred: {sim.transferred_bytes}")
    for camera_id, node in camera_nodes.items():
        role = decision.assignment.get(camera_id, "idle")
        print(
            f"  {camera_id}: algorithm={role}, frames={node.frames_processed}, "
            f"battery drawn={node.battery.consumed:.1f} J"
        )


if __name__ == "__main__":
    main()
