"""Fleet-scale coordination mechanisms: cells and their coordinator.

This package holds everything *below* the engine that fleet-scale
coordination needs — sharded cell layouts, the hierarchical budget
coordinator, the per-run fleet runtime and the tiled synthetic fleet
worlds.  The ``cell`` and ``cell_full``
:class:`~repro.engine.policy.CoordinationPolicy` classes that expose
these mechanisms live in :mod:`repro.engine.fleet` (policies are
engine-layer objects); this package never imports the engine — the
layer contract in ``tests/test_layer_contract.py`` enforces the
direction.
"""

from repro.fleet.cells import (
    CellLayout,
    normalize_cells,
    partition_cameras,
    validate_cells_value,
)
from repro.fleet.coordinator import (
    BudgetCoordinator,
    CellReading,
)
from repro.fleet.runtime import COORDINATOR_NODE_ID, FleetRuntime
from repro.fleet.world import (
    PERSON_ID_STRIDE,
    TILE_PITCH_M,
    TiledFleetDataset,
    tile_training_library,
    tiled_camera_id,
)

__all__ = [
    "BudgetCoordinator",
    "CellLayout",
    "CellReading",
    "COORDINATOR_NODE_ID",
    "FleetRuntime",
    "PERSON_ID_STRIDE",
    "TILE_PITCH_M",
    "TiledFleetDataset",
    "normalize_cells",
    "partition_cameras",
    "tile_training_library",
    "tiled_camera_id",
    "validate_cells_value",
]
