"""Synthetic fleet worlds: the 4-camera scene tiled to 50/200/1000.

A fleet world replicates a base dataset's scene across a grid of
*tiles*.  Each tile is a physically separate copy of the scene —
its cameras get namespaced ids, its pedestrians get offset person
ids, and its ground plane is translated far beyond the re-id gating
radius, so cross-tile detections can never fuse.  Frame images and
training profiles are shared with the base dataset (a tile's camera
sees exactly what its base counterpart sees), which is what makes a
1000-camera world cost the same offline training as a 4-camera one.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.core.calibration import TrainingItem, TrainingLibrary
from repro.datasets.base import FrameRecord
from repro.datasets.synthetic import DatasetSpec, SyntheticDataset
from repro.geometry.homography import Homography
from repro.world.renderer import FrameObservation

#: Ground-plane spacing between tiles.  The re-id matcher gates at
#: under a metre; 50 m guarantees no cross-tile grouping even for
#: detections at opposite scene edges.
TILE_PITCH_M = 50.0

#: Person-id namespace stride per tile (far above any scene's
#: pedestrian count, so identities never collide across tiles).
PERSON_ID_STRIDE = 10_000


def tile_offsets(num_tiles: int) -> list[tuple[float, float]]:
    """Ground-plane offsets of each tile on a near-square grid."""
    cols = max(1, math.ceil(math.sqrt(num_tiles)))
    return [
        (
            (index % cols) * TILE_PITCH_M,
            (index // cols) * TILE_PITCH_M,
        )
        for index in range(num_tiles)
    ]


def tiled_camera_id(tile: int, base_camera_id: str) -> str:
    return f"t{tile:03d}.{base_camera_id}"


class TiledFleetDataset:
    """A fleet-scale dataset tiled from a base 4-camera dataset.

    Presents the same surface the engine reads from
    :class:`~repro.datasets.synthetic.SyntheticDataset` — ``spec``,
    ``camera_ids``, ``environment``, ``frames()``,
    ``ground_homographies()`` — over ``num_cameras`` cameras drawn
    tile by tile from the base placements.
    """

    def __init__(self, base: SyntheticDataset, num_cameras: int) -> None:
        if num_cameras < 1:
            raise ValueError("need at least one camera")
        self.base = base
        base_ids = base.camera_ids
        per_tile = len(base_ids)
        num_tiles = math.ceil(num_cameras / per_tile)
        self._offsets = tile_offsets(num_tiles)
        #: (tiled id, tile index, base camera id), fleet order.
        self._cameras: list[tuple[str, int, str]] = []
        for tile in range(num_tiles):
            for base_id in base_ids:
                if len(self._cameras) == num_cameras:
                    break
                self._cameras.append(
                    (tiled_camera_id(tile, base_id), tile, base_id)
                )
        self.spec = DatasetSpec(
            name=f"{base.spec.name}-fleet{num_cameras}",
            environment=base.spec.environment,
            num_people=base.spec.num_people,
            num_cameras=num_cameras,
            total_frames=base.spec.total_frames,
            gt_every=base.spec.gt_every,
            train_end=base.spec.train_end,
            bounds=base.spec.bounds,
        )
        self._frame_cache: dict[int, FrameRecord] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def environment(self):
        return self.spec.environment

    @property
    def camera_ids(self) -> list[str]:
        return [tiled_id for tiled_id, _, _ in self._cameras]

    @property
    def num_tiles(self) -> int:
        return len(self._offsets)

    def base_camera_of(self, camera_id: str) -> str:
        for tiled_id, _, base_id in self._cameras:
            if tiled_id == camera_id:
                return base_id
        raise KeyError(f"unknown fleet camera {camera_id!r}")

    def has_ground_truth(self, frame_index: int) -> bool:
        return self.base.has_ground_truth(frame_index)

    def _tile_observation(
        self, base_obs: FrameObservation, tiled_id: str, tile: int
    ) -> FrameObservation:
        dx, dy = self._offsets[tile]
        person_offset = tile * PERSON_ID_STRIDE
        objects = [
            replace(
                view,
                person_id=view.person_id + person_offset,
                ground_xy=(
                    view.ground_xy[0] + dx,
                    view.ground_xy[1] + dy,
                ),
            )
            for view in base_obs.objects
        ]
        return FrameObservation(
            camera_id=tiled_id,
            frame_index=base_obs.frame_index,
            objects=objects,
            clutter_regions=base_obs.clutter_regions,
            frame_image=base_obs.frame_image,  # shared: the view is identical
            image_scale=base_obs.image_scale,
        )

    def _wrap(self, record: FrameRecord) -> FrameRecord:
        cached = self._frame_cache.get(record.frame_index)
        if cached is not None:
            return cached
        observations = {
            tiled_id: self._tile_observation(
                record.observations[base_id], tiled_id, tile
            )
            for tiled_id, tile, base_id in self._cameras
        }
        wrapped = FrameRecord(
            frame_index=record.frame_index,
            observations=observations,
            has_ground_truth=record.has_ground_truth,
        )
        self._frame_cache[record.frame_index] = wrapped
        return wrapped

    def frames(
        self,
        start: int,
        end: int,
        step: int = 1,
        only_ground_truth: bool = False,
    ) -> list[FrameRecord]:
        return [
            self._wrap(record)
            for record in self.base.frames(
                start, end, step=step, only_ground_truth=only_ground_truth
            )
        ]

    def ground_homographies(self) -> dict[str, Homography]:
        """Per-camera image -> fleet-ground homographies: the base
        mapping composed with the camera's tile translation."""
        base_homographies = self.base.ground_homographies()
        out: dict[str, Homography] = {}
        for tiled_id, tile, base_id in self._cameras:
            dx, dy = self._offsets[tile]
            translation = Homography(
                np.array(
                    [[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]]
                )
            )
            out[tiled_id] = translation.compose(base_homographies[base_id])
        return out

    def clear_cache(self) -> None:
        self._frame_cache.clear()
        self.base.clear_cache()


def tile_training_library(
    base_library: TrainingLibrary,
    camera_items: dict[str, str],
) -> TrainingLibrary:
    """A fleet training library aliasing base per-camera profiles.

    ``camera_items`` maps each fleet camera id to the *base* training
    item its tile replicates (``"t007.lab-cam2" -> "T-lab-cam2"``).
    Profiles are shared objects — a tile's camera was trained by its
    base counterpart — so tiling adds no training cost; the calibration
    memo cache is shared with the base library for the same reason.
    """
    library = TrainingLibrary(cache=base_library.cache)
    for fleet_camera_id, base_item_name in camera_items.items():
        base_item = base_library.get(base_item_name)
        library.add(
            TrainingItem(
                name=f"T-{fleet_camera_id}",
                profiles=base_item.profiles,
                features=base_item.features,
            )
        )
    return library
