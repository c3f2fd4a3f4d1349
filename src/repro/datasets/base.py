"""Dataset frame records and video segments."""

from __future__ import annotations

from dataclasses import dataclass

from repro.world.renderer import FrameObservation


@dataclass
class FrameRecord:
    """One time step across all cameras.

    Attributes:
        frame_index: Global frame number.
        observations: Per-camera frame observation, keyed by camera id.
        has_ground_truth: Whether this frame carries annotation (the
            datasets annotate every 10th or 25th frame).
    """

    frame_index: int
    observations: dict[str, FrameObservation]
    has_ground_truth: bool

    def observation(self, camera_id: str) -> FrameObservation:
        try:
            return self.observations[camera_id]
        except KeyError:
            raise KeyError(
                f"frame {self.frame_index} has no camera {camera_id!r}; "
                f"available: {sorted(self.observations)}"
            ) from None

    @property
    def camera_ids(self) -> list[str]:
        return list(self.observations)


@dataclass
class VideoSegment:
    """A contiguous span of frames of one dataset.

    Matches the paper's train/test protocol: the first 1000 frames of
    each feed are the training video, the remainder the test item.
    """

    name: str
    start_frame: int
    end_frame: int
    frames: list[FrameRecord]

    def __post_init__(self) -> None:
        if self.end_frame < self.start_frame:
            raise ValueError(
                f"segment {self.name!r} ends before it starts: "
                f"[{self.start_frame}, {self.end_frame}]"
            )

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def camera_frames(self, camera_id: str) -> list[FrameObservation]:
        """This camera's observations across the segment."""
        return [f.observation(camera_id) for f in self.frames]
