"""Cell partitioning: sharding a camera fleet for local control.

A *cell* is a group of cameras run by one local controller; the
hierarchical ``cell`` policy gives every cell its own
:class:`~repro.core.controller.EECSController` beneath a top-level
budget coordinator.  This module owns the layout description and its
validation — every error names the offending field so a bad spec
fails at construction, not minutes into a fleet run.
"""

from __future__ import annotations

from dataclasses import dataclass


def validate_cells_value(
    cells: "int | tuple[tuple[str, ...], ...]",
    field: str = "cells",
    num_cameras: int | None = None,
) -> None:
    """Structural validation of a cells request.

    Accepts either a cell count or explicit camera-id groups, and
    raises ``ValueError`` naming ``field`` for: a non-positive count,
    a count exceeding the fleet size, an empty cell, or a camera id
    appearing in more than one cell.  Coverage against the actual
    fleet membership needs the dataset and happens in
    :func:`normalize_cells`.
    """
    if isinstance(cells, bool) or not isinstance(cells, (int, tuple, list)):
        raise ValueError(
            f"{field} must be a cell count or groups of camera ids, "
            f"got {type(cells).__name__}"
        )
    if isinstance(cells, int):
        if cells < 1:
            raise ValueError(f"{field} must be >= 1, got {cells}")
        if num_cameras is not None and cells > num_cameras:
            raise ValueError(
                f"{field}: cell count {cells} exceeds the fleet's "
                f"{num_cameras} cameras"
            )
        return
    if not cells:
        raise ValueError(f"{field} must contain at least one cell")
    if num_cameras is not None and len(cells) > num_cameras:
        raise ValueError(
            f"{field}: cell count {len(cells)} exceeds the fleet's "
            f"{num_cameras} cameras"
        )
    seen: set[str] = set()
    for index, cell in enumerate(cells):
        if not isinstance(cell, (tuple, list)):
            raise ValueError(
                f"{field}[{index}] must be a group of camera ids, "
                f"got {type(cell).__name__}"
            )
        if not cell:
            raise ValueError(f"{field}[{index}] is empty")
        for camera_id in cell:
            if not isinstance(camera_id, str):
                raise ValueError(
                    f"{field}[{index}] holds a non-string camera id: "
                    f"{camera_id!r}"
                )
            if camera_id in seen:
                raise ValueError(
                    f"{field}: camera {camera_id!r} appears in more "
                    "than one cell"
                )
            seen.add(camera_id)


def partition_cameras(
    camera_ids: list[str], num_cells: int
) -> tuple[tuple[str, ...], ...]:
    """Split a fleet into ``num_cells`` contiguous, near-even cells.

    Contiguity matters: the tiled fleet worlds emit cameras tile by
    tile, so contiguous cells align with physical neighbourhoods.
    """
    validate_cells_value(num_cells, num_cameras=len(camera_ids))
    base, extra = divmod(len(camera_ids), num_cells)
    cells: list[tuple[str, ...]] = []
    cursor = 0
    for index in range(num_cells):
        size = base + (1 if index < extra else 0)
        cells.append(tuple(camera_ids[cursor : cursor + size]))
        cursor += size
    return tuple(cells)


@dataclass(frozen=True)
class CellLayout:
    """An immutable fleet partition: every camera in exactly one cell."""

    cells: tuple[tuple[str, ...], ...]

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def cell_ids(self) -> list[str]:
        """Stable cell identifiers, used as telemetry labels."""
        return [f"cell{index:03d}" for index in range(len(self.cells))]

    @property
    def camera_ids(self) -> list[str]:
        return [camera_id for cell in self.cells for camera_id in cell]

    def cell_of(self, camera_id: str) -> str:
        for index, cell in enumerate(self.cells):
            if camera_id in cell:
                return f"cell{index:03d}"
        raise KeyError(f"camera {camera_id!r} is in no cell")

    def members(self, cell_id: str) -> tuple[str, ...]:
        try:
            index = self.cell_ids.index(cell_id)
        except ValueError:
            raise KeyError(
                f"unknown cell {cell_id!r}; known: {self.cell_ids}"
            ) from None
        return self.cells[index]

    def to_dict(self) -> dict:
        return {"cells": [list(cell) for cell in self.cells]}

    @classmethod
    def from_dict(cls, data: dict) -> "CellLayout":
        return cls(
            cells=tuple(tuple(cell) for cell in data["cells"])
        )


def normalize_cells(
    cells: "int | tuple[tuple[str, ...], ...] | CellLayout | None",
    camera_ids: list[str],
    field: str = "cells",
) -> CellLayout:
    """A validated :class:`CellLayout` over exactly ``camera_ids``.

    ``None`` means the degenerate hierarchy: one cell holding the
    whole fleet (a single local controller under a coordinator with
    nothing to arbitrate — bit-identical to the flat protocol).  An
    int partitions the fleet contiguously; explicit groups must cover
    every fleet camera exactly once.
    """
    if cells is None:
        return CellLayout(cells=(tuple(camera_ids),))
    if isinstance(cells, CellLayout):
        cells = cells.cells
    validate_cells_value(cells, field=field, num_cameras=len(camera_ids))
    if isinstance(cells, int):
        return CellLayout(cells=partition_cameras(camera_ids, cells))
    known = set(camera_ids)
    assigned: set[str] = set()
    for index, cell in enumerate(cells):
        for camera_id in cell:
            if camera_id not in known:
                raise ValueError(
                    f"{field}[{index}] names unknown camera "
                    f"{camera_id!r}"
                )
            assigned.add(camera_id)
    missing = [c for c in camera_ids if c not in assigned]
    if missing:
        raise ValueError(
            f"{field} leaves cameras unassigned: {missing[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
    return CellLayout(cells=tuple(tuple(cell) for cell in cells))
