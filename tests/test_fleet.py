"""Fleet-scale coordination: cells, coordinator, tiled worlds.

The tentpole guarantees pinned here:

* one cell collapses the hierarchy to the flat ``subset`` protocol
  **bit for bit** (every RunResult field bar ``mode``);
* multi-cell runs are deterministic, conserve the budget envelope, and
  kill-and-resume byte-identically with per-cell controller state in
  the checkpoint;
* tiled fleet worlds namespace identities and never fuse across tiles;
* a cell that loses its leader re-elects deterministically over the
  survivors (the resilience ladder's transitions reach cell
  controllers unchanged).
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import CheckpointConfig, CheckpointInterrupted
from repro.checkpoint.codec import run_result_to_dict
from repro.core.controller import CAMERA_ACTIVE, CAMERA_QUARANTINED
from repro.engine import (
    CellPolicy,
    DeploymentEngine,
    SubsetPolicy,
    available_policies,
    fleet_context,
    resolve_policy,
    shared_context,
)
from repro.engine.spec import DeploymentSpec
from repro.fleet.cells import (
    CellLayout,
    normalize_cells,
    partition_cameras,
    validate_cells_value,
)
from repro.fleet.coordinator import (
    MAX_SCALE_STEP,
    BudgetCoordinator,
    CellReading,
)
from repro.fleet.runtime import FleetRuntime
from repro.fleet.world import (
    PERSON_ID_STRIDE,
    TILE_PITCH_M,
    TiledFleetDataset,
    tile_training_library,
)
from tests.golden_utils import run_result_fingerprint

WINDOW = {"start": 1000, "end": 1300}


@pytest.fixture(scope="module")
def ctx1():
    return shared_context(1)


@pytest.fixture(scope="module")
def fleet8():
    return fleet_context(8)


def run_engine(context, policy, cells=None, **kwargs):
    engine = DeploymentEngine(context, seed=2017)
    return engine.run(
        policy, budget=2.0, cells=cells, **{**WINDOW, **kwargs}
    )


# ----------------------------------------------------------------------
# Cell layouts
# ----------------------------------------------------------------------
class TestCellLayout:
    CAMS = ["a", "b", "c", "d", "e"]

    def test_partition_contiguous_near_even(self):
        assert partition_cameras(self.CAMS, 2) == (
            ("a", "b", "c"),
            ("d", "e"),
        )

    def test_normalize_none_is_one_fleet_wide_cell(self):
        layout = normalize_cells(None, self.CAMS)
        assert layout.num_cells == 1
        assert layout.cells == (tuple(self.CAMS),)

    def test_normalize_int_partitions(self):
        layout = normalize_cells(3, self.CAMS)
        assert layout.num_cells == 3
        assert layout.camera_ids == self.CAMS

    def test_cell_ids_and_membership(self):
        layout = normalize_cells(2, self.CAMS)
        assert layout.cell_ids == ["cell000", "cell001"]
        assert layout.cell_of("e") == "cell001"
        assert layout.members("cell000") == ("a", "b", "c")
        with pytest.raises(KeyError, match="no cell"):
            layout.cell_of("zz")
        with pytest.raises(KeyError, match="unknown cell"):
            layout.members("cell999")

    def test_round_trips_through_dict(self):
        layout = normalize_cells((("a", "b"), ("c", "d", "e")), self.CAMS)
        assert CellLayout.from_dict(layout.to_dict()) == layout

    def test_unknown_camera_names_field_and_index(self):
        with pytest.raises(ValueError, match=r"cells\[1\] names unknown"):
            normalize_cells((("a", "b"), ("zz",), ("c", "d", "e")), self.CAMS)

    def test_unassigned_cameras_rejected(self):
        with pytest.raises(ValueError, match="leaves cameras unassigned"):
            normalize_cells((("a", "b"),), self.CAMS)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (0, r"cells must be >= 1"),
            (-2, r"cells must be >= 1"),
            (True, r"cells must be a cell count"),
            ("two", r"cells must be a cell count"),
            ((), r"at least one cell"),
            ((("a",), ()), r"cells\[1\] is empty"),
            ((("a", 7),), r"non-string camera id"),
            ((("a", "b"), ("b",)), r"camera 'b' appears in more"),
        ],
    )
    def test_structural_validation_names_field(self, bad, message):
        with pytest.raises(ValueError, match=message):
            validate_cells_value(bad, num_cameras=5)

    def test_count_exceeding_fleet_named(self):
        with pytest.raises(
            ValueError, match="cell count 9 exceeds the fleet's 5 cameras"
        ):
            validate_cells_value(9, num_cameras=5)

    def test_custom_field_name_in_errors(self):
        with pytest.raises(ValueError, match="layout must be >= 1"):
            validate_cells_value(0, field="layout")


# ----------------------------------------------------------------------
# Budget coordinator
# ----------------------------------------------------------------------
class TestBudgetCoordinator:
    def reading(self, cell_id, cams, achieved, desired):
        return CellReading(
            cell_id=cell_id,
            num_cameras=cams,
            achieved_objects=achieved,
            desired_objects=desired,
        )

    def test_first_round_scales_are_exactly_one(self):
        coord = BudgetCoordinator()
        scales = coord.allocate(["cell000", "cell001"], {
            "cell000": 2, "cell001": 2,
        })
        assert scales == {"cell000": 1.0, "cell001": 1.0}

    def test_single_cell_is_identity_even_with_readings(self):
        coord = BudgetCoordinator()
        coord.readings["cell000"] = self.reading("cell000", 4, 30.0, 10.0)
        scales = coord.allocate(["cell000"], {"cell000": 4})
        assert scales == {"cell000": 1.0}

    def test_envelope_conserved_and_step_clamped(self):
        coord = BudgetCoordinator()
        # cell000 overshoots 3x (sheds budget), cell001 misses by half
        # (gains budget); both raw scales hit the +/-25% clamp.
        coord.readings["cell000"] = self.reading("cell000", 4, 30.0, 10.0)
        coord.readings["cell001"] = self.reading("cell001", 4, 5.0, 10.0)
        cams = {"cell000": 4, "cell001": 4}
        scales = coord.allocate(["cell000", "cell001"], cams)
        assert scales["cell000"] < 1.0 < scales["cell001"]
        weighted_mean = sum(
            scales[c] * cams[c] for c in cams
        ) / sum(cams.values())
        assert weighted_mean == pytest.approx(1.0)
        raw_ratio = (1.0 + MAX_SCALE_STEP) / (1.0 - MAX_SCALE_STEP)
        assert scales["cell001"] / scales["cell000"] == pytest.approx(
            raw_ratio
        )

    def test_unreported_cell_gets_neutral_raw_scale(self):
        coord = BudgetCoordinator()
        coord.readings["cell000"] = self.reading("cell000", 2, 5.0, 10.0)
        scales = coord.allocate(
            ["cell000", "cell001"], {"cell000": 2, "cell001": 2}
        )
        assert scales["cell000"] > scales["cell001"]

    def test_fold_single_decision_is_the_same_object(self, ctx1):
        engine = DeploymentEngine(ctx1, seed=2017)
        result = engine.run("subset", budget=2.0, **WINDOW)
        decision = result.decisions[0]
        assert BudgetCoordinator.fold([decision]) is decision

    def test_fold_merges_and_weights(self, ctx1):
        engine = DeploymentEngine(ctx1, seed=2017)
        result = engine.run("subset", budget=2.0, **WINDOW)
        d = result.decisions[0]
        folded = BudgetCoordinator.fold([d, d])
        assert folded.assignment == d.assignment
        assert folded.baseline.num_objects == 2 * d.baseline.num_objects
        assert folded.baseline.mean_probability == pytest.approx(
            d.baseline.mean_probability
        )
        assert folded.desired.min_objects == 2 * d.desired.min_objects
        assert folded.ranked_camera_ids == (
            d.ranked_camera_ids + d.ranked_camera_ids
        )

    def test_fold_zero_raises(self):
        with pytest.raises(ValueError, match="zero cell decisions"):
            BudgetCoordinator.fold([])

    def test_snapshot_restore_round_trip(self):
        coord = BudgetCoordinator()
        coord.readings["cell000"] = self.reading("cell000", 4, 30.0, 10.0)
        coord.allocate(
            ["cell000", "cell001"], {"cell000": 4, "cell001": 1}
        )
        state = json.loads(json.dumps(coord.snapshot()))
        fresh = BudgetCoordinator()
        fresh.restore(state)
        assert fresh.scales == coord.scales
        assert fresh.readings == coord.readings


# ----------------------------------------------------------------------
# Tiled fleet worlds
# ----------------------------------------------------------------------
class TestTiledFleetWorld:
    def test_camera_namespacing_and_spec(self, ctx1, fleet8):
        dataset = fleet8.dataset
        assert dataset.spec.name == "lab-fleet8"
        assert dataset.spec.num_cameras == 8
        assert dataset.camera_ids[0] == "t000.lab-cam1"
        assert dataset.camera_ids[4] == "t001.lab-cam1"
        assert dataset.base_camera_of("t001.lab-cam2") == "lab-cam2"
        with pytest.raises(KeyError, match="unknown fleet camera"):
            dataset.base_camera_of("t099.lab-cam1")

    def test_partial_last_tile(self, ctx1):
        dataset = TiledFleetDataset(ctx1.dataset, 6)
        assert len(dataset.camera_ids) == 6
        assert dataset.num_tiles == 2

    def test_tiles_share_images_and_offset_identities(self, ctx1, fleet8):
        record = fleet8.dataset.frames(1000, 1001)[0]
        base = record.observations["t000.lab-cam1"]
        tiled = record.observations["t001.lab-cam1"]
        assert tiled.image is base.image  # shared, not copied
        base_ids = {view.person_id for view in base.objects}
        tiled_ids = {view.person_id for view in tiled.objects}
        assert tiled_ids == {pid + PERSON_ID_STRIDE for pid in base_ids}
        for b, t in zip(base.objects, tiled.objects):
            dx = t.ground_xy[0] - b.ground_xy[0]
            dy = t.ground_xy[1] - b.ground_xy[1]
            assert (dx, dy) != (0.0, 0.0)
            assert max(abs(dx), abs(dy)) == pytest.approx(TILE_PITCH_M)

    def test_homographies_compose_tile_translation(self, fleet8):
        import numpy as np

        maps = fleet8.dataset.ground_homographies()
        pixel = np.array([[100.0, 100.0]])
        p0 = maps["t000.lab-cam1"].apply(pixel)[0]
        p1 = maps["t001.lab-cam1"].apply(pixel)[0]
        offset = (p1[0] - p0[0], p1[1] - p0[1])
        assert max(abs(offset[0]), abs(offset[1])) == pytest.approx(
            TILE_PITCH_M
        )

    def test_matcher_never_groups_across_tiles(self, fleet8):
        """Tile pitch dwarfs the re-id gating radius, so a group's
        members always come from one tile."""
        engine = DeploymentEngine(fleet8, seed=2017)
        record = fleet8.dataset.frames(1000, 1001)[0]
        detections = []
        for camera_id in fleet8.dataset.camera_ids:
            detector = fleet8.detectors["HOG"]
            import numpy as np

            dets = detector.detect(
                record.observation(camera_id), np.random.default_rng(7)
            )
            for det in dets:
                det.probability = 0.9
            detections.extend(dets)
        groups = fleet8.matcher.group(detections)
        assert groups
        for group in groups:
            tiles = {
                camera_id.split(".")[0] for camera_id in group.camera_ids
            }
            assert len(tiles) == 1

    def test_training_library_aliases_base_profiles(self, ctx1, fleet8):
        base_item = ctx1.library.get("T-lab-cam2")
        fleet_item = fleet8.library.get("T-t001.lab-cam2")
        assert fleet_item.profiles is base_item.profiles
        assert fleet8.library.cache is ctx1.library.cache

    def test_tile_training_library_rejects_unknown_base(self, ctx1):
        with pytest.raises(KeyError):
            tile_training_library(ctx1.library, {"t000.x": "T-nope"})


# ----------------------------------------------------------------------
# The cell policy: exactness, determinism, checkpointing
# ----------------------------------------------------------------------
class TestCellPolicy:
    def test_registered_like_any_policy(self):
        names = available_policies()
        assert "cell" in names and "cell_full" in names
        assert isinstance(resolve_policy("cell"), CellPolicy)

    def test_entropy_aliases_subset(self):
        assert CellPolicy().entropy_token() == SubsetPolicy().entropy_token()
        assert (
            resolve_policy("fixed").entropy_token()
            != SubsetPolicy().entropy_token()
        )

    def test_one_cell_bit_identical_to_flat_subset(self, ctx1):
        """The tentpole guarantee: at one cell the hierarchy IS the
        flat protocol — every RunResult field bar ``mode`` matches
        bit for bit."""
        flat = run_engine(ctx1, "subset")
        cell = run_engine(ctx1, "cell")
        flat_fp = run_result_fingerprint(flat)
        cell_fp = run_result_fingerprint(cell)
        assert flat_fp.pop("mode") == "subset"
        assert cell_fp.pop("mode") == "cell"
        assert cell_fp == flat_fp

    def test_multi_cell_deterministic(self, fleet8):
        first = run_engine(fleet8, "cell", cells=2)
        second = run_engine(fleet8, "cell", cells=2)
        assert run_result_fingerprint(first) == run_result_fingerprint(
            second
        )
        # Both cells contribute cameras to the folded assignment.
        layout = normalize_cells(2, fleet8.dataset.camera_ids)
        for decision in first.decisions:
            cells_used = {
                layout.cell_of(camera_id)
                for camera_id in decision.assignment
            }
            assert len(cells_used) == 2

    def test_multi_cell_coordination_costs_joules(self, fleet8):
        flat = run_engine(fleet8, "subset")
        sharded = run_engine(fleet8, "cell", cells=2)
        assert (
            sharded.communication_joules > flat.communication_joules
        ), "coordinator/cell messaging must land in the energy meter"

    def test_explicit_cell_groups_accepted(self, fleet8):
        ids = fleet8.dataset.camera_ids
        explicit = (tuple(ids[:3]), tuple(ids[3:]))
        result = run_engine(fleet8, "cell", cells=explicit)
        assert result.humans_present > 0

    def test_cell_telemetry_labels(self, fleet8):
        from repro.telemetry import Telemetry

        telemetry = Telemetry(run_id="fleet-test")
        engine = DeploymentEngine(fleet8, seed=2017, telemetry=telemetry)
        engine.run("cell", budget=2.0, cells=2, **WINDOW)
        snapshot = telemetry.registry.snapshot()
        series = {
            (entry["name"], tuple(sorted(s["labels"].items())))
            for entry in snapshot["metrics"]
            for s in entry["series"]
        }
        for cell_id in ("cell000", "cell001"):
            assert (
                "fleet_cell_selections_total", (("cell", cell_id),)
            ) in series
            assert (
                "fleet_cell_budget_scale", (("cell", cell_id),)
            ) in series
        names = {entry["name"] for entry in snapshot["metrics"]}
        assert "fleet_coordination_messages_total" in names
        assert "fleet_coordination_joules_total" in names
        spans = [
            span for span in telemetry.tracer.spans
            if span.name == "cell_select"
        ]
        assert spans
        assert {span.attributes["cell"] for span in spans} == {
            "cell000", "cell001",
        }

    def test_kill_and_resume_byte_identical(self, fleet8, tmp_path):
        """Crash a 2-cell run mid-flight; the resumed run's RunResult
        serialises to the same bytes as an uninterrupted one."""
        from repro.checkpoint import RunCheckpointer

        reference = run_engine(fleet8, "cell", cells=2)

        engine = DeploymentEngine(fleet8, seed=2017)
        with pytest.raises(CheckpointInterrupted):
            engine.run(
                "cell",
                budget=2.0,
                cells=2,
                checkpointer=RunCheckpointer(
                    CheckpointConfig(directory=tmp_path, crash_after=0)
                ),
                **WINDOW,
            )

        resumed_engine = DeploymentEngine(fleet8, seed=2017)
        resumed = resumed_engine.run(
            "cell",
            budget=2.0,
            cells=2,
            checkpointer=RunCheckpointer(
                CheckpointConfig(directory=tmp_path, resume=True)
            ),
            **WINDOW,
        )
        assert json.dumps(
            run_result_to_dict(resumed), sort_keys=True
        ) == json.dumps(run_result_to_dict(reference), sort_keys=True)

    def test_resilience_layer_inert_with_cells(self, fleet8):
        from repro.resilience.ladder import ResilienceConfig

        plain = run_engine(fleet8, "cell", cells=2)
        guarded = run_engine(
            fleet8, "cell", cells=2,
            resilience=ResilienceConfig(enabled=True),
        )
        assert run_result_fingerprint(plain) == run_result_fingerprint(
            guarded
        )


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------
class TestLeaderElection:
    def make_runtime(self, fleet8, telemetry=None):
        engine = DeploymentEngine(fleet8, seed=2017, telemetry=telemetry)
        layout = normalize_cells(2, fleet8.dataset.camera_ids)
        runtime = FleetRuntime(
            layout,
            controller_factory=lambda ids: engine.build_controller(
                camera_ids=ids
            ),
            telemetry=telemetry,
        )
        return engine, layout, runtime

    def test_initial_leaders_are_first_members(self, fleet8):
        _, layout, runtime = self.make_runtime(fleet8)
        assert runtime.leaders == {
            "cell000": layout.cells[0][0],
            "cell001": layout.cells[1][0],
        }

    def test_quarantined_leader_reelected_over_survivors(self, fleet8):
        from repro.telemetry import Telemetry

        telemetry = Telemetry(run_id="election")
        _, layout, runtime = self.make_runtime(fleet8, telemetry)
        old = runtime.leaders["cell000"]
        runtime.set_camera_mode(old, CAMERA_QUARANTINED)
        transitions = runtime.ensure_leaders()
        new = layout.cells[0][1]
        assert transitions == [("cell000", old, new)]
        assert runtime.leaders["cell000"] == new
        assert runtime.leaders["cell001"] == layout.cells[1][0]
        events = telemetry.events.by_kind("cell_leader_elected")
        assert len(events) == 1
        assert events[0].detail["cell"] == "cell000"
        assert events[0].detail["previous_leader"] == old
        assert events[0].node_id == new

    def test_recovered_leader_not_displaced(self, fleet8):
        _, layout, runtime = self.make_runtime(fleet8)
        old = runtime.leaders["cell000"]
        runtime.set_camera_mode(old, CAMERA_QUARANTINED)
        runtime.ensure_leaders()
        runtime.set_camera_mode(old, CAMERA_ACTIVE)
        assert runtime.ensure_leaders() == []
        assert runtime.leaders["cell000"] == layout.cells[0][1]

    def test_fully_lost_cell_keeps_leader_on_record(self, fleet8):
        _, layout, runtime = self.make_runtime(fleet8)
        for camera_id in layout.cells[0]:
            runtime.set_camera_mode(camera_id, CAMERA_QUARANTINED)
        assert runtime.ensure_leaders() == []
        assert runtime.leaders["cell000"] == layout.cells[0][0]

    def test_engine_mirrors_ladder_transitions_into_cells(self, fleet8):
        """The engine's mode seam routes into the owning cell
        controller, so losing a local controller mid-run re-elects."""
        engine, layout, runtime = self.make_runtime(fleet8)
        engine.attach_fleet(runtime)
        leader = runtime.leaders["cell000"]
        engine._set_camera_mode(leader, CAMERA_QUARANTINED)
        cell_state = runtime.controllers["cell000"].camera(leader)
        assert cell_state.mode == CAMERA_QUARANTINED
        assert engine.controller.camera(leader).mode == CAMERA_QUARANTINED
        runtime.ensure_leaders()
        assert runtime.leaders["cell000"] == layout.cells[0][1]


# ----------------------------------------------------------------------
# DeploymentSpec fleet validation (construction-time fail-fast)
# ----------------------------------------------------------------------
class TestDeploymentSpecFleet:
    def test_duplicate_camera_across_cells_rejected(self):
        with pytest.raises(
            ValueError, match="cells: camera 'a' appears in more"
        ):
            DeploymentSpec(
                dataset_number=1,
                policy="cell",
                cells=(("a", "b"), ("a", "c")),
            )

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError, match=r"cells\[1\] is empty"):
            DeploymentSpec(
                dataset_number=1, policy="cell", cells=(("a", "b"), ())
            )

    def test_cell_count_exceeding_cameras_rejected(self):
        with pytest.raises(
            ValueError, match="cell count 9 exceeds the fleet's 4 cameras"
        ):
            DeploymentSpec(dataset_number=1, policy="cell", cells=9)

    def test_cell_count_checked_against_fleet_cameras(self):
        with pytest.raises(
            ValueError, match="cell count 9 exceeds the fleet's 8 cameras"
        ):
            DeploymentSpec(
                dataset_number=1, policy="cell", fleet_cameras=8, cells=9
            )
        # The same count is fine once the fleet is big enough.
        DeploymentSpec(
            dataset_number=1, policy="cell", fleet_cameras=36, cells=9
        )

    @pytest.mark.parametrize("policy", ["subset", "full", "predictive"])
    def test_cells_rejected_on_flat_policies(self, policy):
        with pytest.raises(
            ValueError, match=f"policy '{policy}' does not use cells"
        ):
            DeploymentSpec(dataset_number=1, policy=policy, cells=4)

    def test_engine_run_rejects_cells_on_flat_policies(self, ctx1):
        with pytest.raises(ValueError, match="does not use cells"):
            run_engine(ctx1, "subset", cells=2)

    def test_cli_rejects_cells_on_flat_policies(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="does not use cells"):
            main(["run", "--dataset", "1", "--mode", "subset", "--cells", "2"])

    def test_fleet_cameras_validated(self):
        with pytest.raises(ValueError, match="fleet_cameras must be >= 1"):
            DeploymentSpec(dataset_number=1, fleet_cameras=0)

    def test_spec_executes_cell_run(self, fleet8):
        spec = DeploymentSpec(
            dataset_number=1,
            policy="cell",
            budget=2.0,
            fleet_cameras=8,
            cells=2,
            **WINDOW,
        )
        engine = DeploymentEngine(fleet8, seed=2017)
        result = spec.execute(engine=engine)
        assert result.mode == "cell"
        assert result.humans_present > 0
