"""Synthetic generators for the three evaluation datasets.

A :class:`SyntheticDataset` owns one scene, four cameras and their
renderers, and can materialise any frame range.  The scene is
deterministic for a given spec: regenerating the same frame range
yields identical observations, mirroring how the paper replays fixed
recorded videos.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.base import FrameRecord, VideoSegment
from repro.geometry.camera import PinholeCamera
from repro.geometry.homography import Homography
from repro.world.environment import CHAP, LAB, NIGHT, TERRACE, Environment
from repro.world.renderer import Renderer
from repro.world.scene import Scene, make_camera_ring


@dataclass(frozen=True)
class DatasetSpec:
    """Structural description of one dataset.

    Attributes mirror the paper's Section VI dataset table: camera
    count, person count, total length, ground-truth cadence, and the
    train/test boundary at frame 1000.
    """

    name: str
    environment: Environment
    num_people: int
    num_cameras: int = 4
    total_frames: int = 3000
    gt_every: int = 25
    train_end: int = 1000
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 8.0, 8.0)

    def __post_init__(self) -> None:
        if self.gt_every < 1:
            raise ValueError("gt_every must be >= 1")
        if not 0 < self.train_end < self.total_frames:
            raise ValueError("train_end must split the video")


DATASET_SPECS: dict[int, DatasetSpec] = {
    1: DatasetSpec(name="lab", environment=LAB, num_people=6, gt_every=25),
    2: DatasetSpec(name="chap", environment=CHAP, num_people=5, gt_every=10),
    3: DatasetSpec(
        name="terrace",
        environment=TERRACE,
        num_people=8,
        gt_every=25,
        bounds=(0.0, 0.0, 10.0, 10.0),
    ),
    # Extension beyond the paper: the terrace after dark.
    4: DatasetSpec(
        name="night",
        environment=NIGHT,
        num_people=8,
        gt_every=25,
        bounds=(0.0, 0.0, 10.0, 10.0),
    ),
}


class SyntheticDataset:
    """One dataset: scene + cameras + renderers + frame generation."""

    def __init__(self, spec: DatasetSpec) -> None:
        self.spec = spec
        self.cache_frames = True
        self.cameras: list[PinholeCamera] = make_camera_ring(
            spec.environment,
            num_cameras=spec.num_cameras,
            bounds=spec.bounds,
        )
        self._frame_cache: dict[int, FrameRecord] = {}
        self._reset_scene()

    def _reset_scene(self) -> None:
        self._scene = Scene(
            environment=self.spec.environment,
            num_people=self.spec.num_people,
            bounds=self.spec.bounds,
        )
        self._renderers = [
            Renderer(self._scene, camera) for camera in self.cameras
        ]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def environment(self) -> Environment:
        return self.spec.environment

    @property
    def camera_ids(self) -> list[str]:
        return [camera.camera_id for camera in self.cameras]

    def has_ground_truth(self, frame_index: int) -> bool:
        return frame_index % self.spec.gt_every == 0

    def ground_homographies(self) -> dict[str, Homography]:
        """Per-camera image->world-ground homographies (the calibration
        files the real datasets ship)."""
        return {
            camera.camera_id: Homography(camera.ground_homography()).inverse()
            for camera in self.cameras
        }

    def _materialise(self, frame_index: int) -> FrameRecord:
        if frame_index in self._frame_cache:
            return self._frame_cache[frame_index]
        if frame_index < self._scene.frame_index:
            # The scene is forward-only; replay deterministically.
            self._reset_scene()
        self._scene.run_to_frame(frame_index)
        observations = {
            renderer.camera.camera_id: renderer.render(frame_index)
            for renderer in self._renderers
        }
        record = FrameRecord(
            frame_index=frame_index,
            observations=observations,
            has_ground_truth=self.has_ground_truth(frame_index),
        )
        if self.cache_frames:
            self._frame_cache[frame_index] = record
        return record

    def frames(
        self,
        start: int,
        end: int,
        step: int = 1,
        only_ground_truth: bool = False,
    ) -> list[FrameRecord]:
        """Materialise frames ``start <= f < end`` (inclusive of start).

        Args:
            start: First frame index.
            end: One past the last frame index.
            step: Stride between sampled frames.
            only_ground_truth: Keep only annotated frames.
        """
        if start < 0 or end < start:
            raise ValueError(f"bad frame range [{start}, {end})")
        indices = range(start, end, step)
        if only_ground_truth:
            indices = [i for i in indices if self.has_ground_truth(i)]
        return [self._materialise(i) for i in indices]

    def segment(
        self,
        start: int,
        end: int,
        name: str | None = None,
        only_ground_truth: bool = False,
        step: int = 1,
    ) -> VideoSegment:
        """A named frame span, e.g. the training or test segment."""
        frames = self.frames(
            start, end, step=step, only_ground_truth=only_ground_truth
        )
        return VideoSegment(
            name=name or f"{self.name}[{start}:{end}]",
            start_frame=start,
            end_frame=end,
            frames=frames,
        )

    def training_segment(self, only_ground_truth: bool = True) -> VideoSegment:
        """Frames 0..train_end, the paper's training video item."""
        return self.segment(
            0,
            self.spec.train_end,
            name=f"{self.name}-train",
            only_ground_truth=only_ground_truth,
        )

    def test_segment(self, only_ground_truth: bool = True) -> VideoSegment:
        """Frames train_end..total, the paper's test item."""
        return self.segment(
            self.spec.train_end,
            self.spec.total_frames,
            name=f"{self.name}-test",
            only_ground_truth=only_ground_truth,
        )

    def clear_cache(self) -> None:
        self._frame_cache.clear()


def make_dataset(number: int) -> SyntheticDataset:
    """Build dataset #1, #2 or #3 by the paper's numbering."""
    try:
        spec = DATASET_SPECS[number]
    except KeyError:
        raise KeyError(
            f"unknown dataset #{number}; available: {sorted(DATASET_SPECS)}"
        ) from None
    return SyntheticDataset(spec)


def make_scaled_dataset(
    num_cameras: int, base_number: int = 1
) -> SyntheticDataset:
    """A fleet-scale variant of a standard dataset.

    Same environment, people and frame schedule as dataset
    ``base_number``, but with ``num_cameras`` cameras on the ring —
    the substrate for the throughput benchmarks at 16/64 cameras.
    The first cameras reproduce the base dataset's placements exactly
    (see :func:`~repro.world.scene.make_camera_ring`).
    """
    try:
        base = DATASET_SPECS[base_number]
    except KeyError:
        raise KeyError(
            f"unknown dataset #{base_number}; "
            f"available: {sorted(DATASET_SPECS)}"
        ) from None
    if num_cameras < 1:
        raise ValueError("need at least one camera")
    spec = DatasetSpec(
        name=f"{base.name}-{num_cameras}cam",
        environment=base.environment,
        num_people=base.num_people,
        num_cameras=num_cameras,
        total_frames=base.total_frames,
        gt_every=base.gt_every,
        train_end=base.train_end,
        bounds=base.bounds,
    )
    return SyntheticDataset(spec)
