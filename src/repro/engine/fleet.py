"""Fleet-scale policies and the fleet deployment context.

The ``cell`` coordination strategy serves fleets the flat protocol
does not scale to, registered as an ordinary
:class:`~repro.engine.policy.CoordinationPolicy` entry (the engine
loop never branches on it): the fleet is sharded into cells, each
running the existing greedy selection under a local controller,
beneath a top-level
:class:`~repro.fleet.coordinator.BudgetCoordinator` that re-allocates
per-cell budget scales every re-calibration interval.  With one cell
the hierarchy collapses to flat ``subset`` bit for bit, which is why
the policy aliases ``subset``'s entropy stream; ``cell_full`` adds
the downgrade step inside each cell.

:func:`fleet_context` is the fleet analogue of
:func:`~repro.engine.context.shared_context`: it tiles the trained
4-camera substrate into a 50/200/1000-camera world without retraining
(profiles and frame images are shared with the base scene).
"""

from __future__ import annotations

from repro.core.config import EECSConfig
from repro.engine.context import DeploymentContext, shared_context
from repro.engine.policy import (
    CoordinationPolicy,
    assessed_rounds,
    register_policy,
)
from repro.fleet.cells import normalize_cells
from repro.fleet.runtime import FleetRuntime
from repro.fleet.world import TiledFleetDataset, tile_training_library
from repro.reid.matcher import CrossCameraMatcher


@register_policy
class CellPolicy(CoordinationPolicy):
    """Sharded cells under a hierarchical budget coordinator.

    ``plan_rounds`` builds the per-run
    :class:`~repro.fleet.runtime.FleetRuntime` — one scoped controller
    per cell from the engine's layout (``run(cells=...)``; defaults to
    a single fleet-wide cell) — and attaches it to the engine;
    ``select`` delegates the whole hierarchical round to it.
    """

    name = "cell"
    #: One cell *is* flat subset selection — same controllers, same
    #: greedy pipeline — so it must draw the same detection rng.
    entropy_alias = "subset"
    enable_downgrade = False
    uses_cells = True

    def plan_rounds(self, engine, records, budget, assignment):
        layout = engine.cell_layout
        if layout is None:
            layout = normalize_cells(None, engine.dataset.camera_ids)
            engine.cell_layout = layout
        now_fn = lambda: engine.clock.now_s  # noqa: E731
        runtime = FleetRuntime(
            layout,
            controller_factory=lambda camera_ids: engine.build_controller(
                telemetry=engine.telemetry,
                now_fn=now_fn if engine.telemetry else None,
                camera_ids=camera_ids,
            ),
            enable_downgrade=self.enable_downgrade,
            telemetry=engine.telemetry,
            now_fn=now_fn,
        )
        engine.attach_fleet(runtime)
        return assessed_rounds(engine, records)

    def select(self, engine, assessment, budget_overrides, meter=None):
        return engine._fleet.select_round(
            assessment, budget_overrides, meter
        )


@register_policy
class FullCellPolicy(CellPolicy):
    """Cells with algorithm downgrade inside each cell (the fleet
    analogue of the ``full`` policy)."""

    name = "cell_full"
    entropy_alias = "full"
    enable_downgrade = True


# ----------------------------------------------------------------------
# Fleet deployment contexts
# ----------------------------------------------------------------------
_FLEET_CONTEXTS: dict[tuple, DeploymentContext] = {}


def fleet_context(
    num_cameras: int,
    base_number: int = 1,
    config: EECSConfig | None = None,
    train_seed: int | None = None,
) -> DeploymentContext:
    """A trained fleet-scale context tiled from a base dataset.

    Trains (or reuses) the base :func:`shared_context`, then tiles its
    scene into a :class:`~repro.fleet.world.TiledFleetDataset` of
    ``num_cameras`` cameras: the training library aliases the base
    per-camera profiles and the matcher composes each tile's ground
    translation onto the base homographies, so a 1000-camera context
    costs the same offline training as a 4-camera one.
    """
    key = (num_cameras, base_number, train_seed, config)
    if key not in _FLEET_CONTEXTS:
        base = shared_context(
            base_number, config=config, train_seed=train_seed
        )
        dataset = TiledFleetDataset(base.dataset, num_cameras)
        library = tile_training_library(
            base.library,
            {
                camera_id: f"T-{dataset.base_camera_of(camera_id)}"
                for camera_id in dataset.camera_ids
            },
        )
        matcher = CrossCameraMatcher(
            image_to_ground=dataset.ground_homographies(),
            ground_radius=base.config.ground_radius_m,
            color_metric=base.matcher.color_metric,
            color_threshold=base.config.color_threshold,
            use_color=base.matcher.use_color,
        )
        _FLEET_CONTEXTS[key] = DeploymentContext(
            dataset=dataset,
            config=base.config,
            detectors=base.detectors,
            library=library,
            matcher=matcher,
            energy_model=base.energy_model,
        )
    return _FLEET_CONTEXTS[key]
