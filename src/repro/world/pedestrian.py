"""Pedestrian motion models.

People walk on the ground plane following the random-waypoint model
widely used in mobile-network simulation: pick a uniform random target
inside the walkable region, walk towards it at a per-person speed,
pause briefly, repeat.  This reproduces the "people walking in the
room" behaviour of the evaluation datasets, including the mutual
occlusions that make some views miss objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Pedestrian:
    """A person on the ground plane.

    Attributes:
        person_id: Stable identifier used as re-identification ground
            truth.
        position: ``(x, y)`` ground-plane location in metres.
        height_m: Body height in metres.
        width_m: Body width (shoulder span) in metres.
        shade: Clothing intensity in ``[0, 1]`` used by the renderer; it
            doubles as a crude appearance signature for colour features.
    """

    person_id: int
    position: np.ndarray
    height_m: float = 1.7
    width_m: float = 0.5
    shade: float = 0.4


@dataclass
class RandomWaypointWalker:
    """Random-waypoint controller for one pedestrian.

    Attributes:
        pedestrian: The controlled person.
        bounds: ``(x_min, y_min, x_max, y_max)`` walkable rectangle.
        speed: Walking speed in metres per second.
        pause_frames: Frames to dwell at each reached waypoint.
    """

    pedestrian: Pedestrian
    bounds: tuple[float, float, float, float]
    speed: float = 1.2
    pause_frames: int = 8
    _target: np.ndarray | None = field(default=None, repr=False)
    _pause_left: int = field(default=0, repr=False)

    def _pick_target(self, rng: np.random.Generator) -> np.ndarray:
        x_min, y_min, x_max, y_max = self.bounds
        return np.array(
            [rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)]
        )

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """Advance the pedestrian by ``dt`` seconds."""
        if self._pause_left > 0:
            self._pause_left -= 1
            return
        if self._target is None:
            self._target = self._pick_target(rng)
        delta = self._target - self.pedestrian.position
        dist = float(np.linalg.norm(delta))
        step_len = self.speed * dt
        if dist <= step_len:
            self.pedestrian.position = np.array(self._target)
            self._target = None
            self._pause_left = self.pause_frames
        else:
            self.pedestrian.position = (
                self.pedestrian.position + delta / dist * step_len
            )


def spawn_pedestrians(
    count: int,
    bounds: tuple[float, float, float, float],
    rng: np.random.Generator,
    speed_range: tuple[float, float] = (0.8, 1.5),
) -> list[RandomWaypointWalker]:
    """Create ``count`` walkers at random positions inside ``bounds``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    x_min, y_min, x_max, y_max = bounds
    walkers = []
    for pid in range(count):
        person = Pedestrian(
            person_id=pid,
            position=np.array(
                [rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)]
            ),
            height_m=float(rng.uniform(1.55, 1.9)),
            width_m=float(rng.uniform(0.42, 0.58)),
            shade=float(rng.uniform(0.15, 0.85)),
        )
        walkers.append(
            RandomWaypointWalker(
                pedestrian=person,
                bounds=bounds,
                speed=float(rng.uniform(*speed_range)),
            )
        )
    return walkers
