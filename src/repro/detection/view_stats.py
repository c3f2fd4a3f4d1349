"""Empirical view statistics used for detector calibration.

The paper calibrates each algorithm's operating point on the training
segment of each video (Section VI-A).  Analogously, the simulated
detectors need to know how hard the typical view in an environment is
— mean and spread of occlusion, size deficit and contrast deficit —
to place their score distributions so the target recall is realised
at the target threshold.  These statistics are measured once per
environment by simulating a short scene, and cached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.world.environment import Environment
from repro.world.renderer import ObjectView, Renderer
from repro.world.scene import Scene, make_camera_ring

#: Reference pixel height relative to the frame height; people shorter
#: than this fraction accrue a size penalty.
SIZE_REFERENCE_FRACTION = 0.35


@dataclass(frozen=True)
class ViewStatistics:
    """Mean/std of the three penalty drivers across typical views."""

    occlusion_mean: float
    occlusion_std: float
    size_deficit_mean: float
    size_deficit_std: float
    contrast_deficit_mean: float
    contrast_deficit_std: float
    visible_people_mean: float

    @classmethod
    def from_views(
        cls, views: list[ObjectView], frame_height: int, num_frames: int
    ) -> "ViewStatistics":
        """Aggregate statistics from observed object views."""
        if not views:
            raise ValueError("cannot compute statistics from zero views")
        size_ref = SIZE_REFERENCE_FRACTION * frame_height
        occ = np.array([v.occlusion for v in views])
        size = np.clip(
            1.0 - np.array([v.pixel_height for v in views]) / size_ref,
            0.0,
            1.0,
        )
        contrast = 1.0 - np.array([v.contrast for v in views])
        return cls(
            occlusion_mean=float(occ.mean()),
            occlusion_std=float(occ.std()),
            size_deficit_mean=float(size.mean()),
            size_deficit_std=float(size.std()),
            contrast_deficit_mean=float(contrast.mean()),
            contrast_deficit_std=float(contrast.std()),
            visible_people_mean=len(views) / max(1, num_frames),
        )


_STATS_CACHE: dict[tuple[str, int], ViewStatistics] = {}


def nominal_statistics(
    environment: Environment,
    num_people: int = 6,
    num_frames: int = 40,
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 8.0, 8.0),
) -> ViewStatistics:
    """Measure (and cache) typical view statistics for an environment.

    Runs a short single-camera simulation with the environment's
    renderer and aggregates the penalty drivers over all views.
    """
    key = (environment.name, num_people)
    if key in _STATS_CACHE:
        return _STATS_CACHE[key]
    scene = Scene(
        environment=environment, num_people=num_people, bounds=bounds
    )
    camera = make_camera_ring(environment, num_cameras=1, bounds=bounds)[0]
    renderer = Renderer(scene, camera)
    views: list[ObjectView] = []
    sampled = 0
    for frame in range(num_frames * 5):
        scene.step()
        if frame % 5 == 0:
            views.extend(renderer.render().objects)
            sampled += 1
    stats = ViewStatistics.from_views(views, environment.height, sampled)
    _STATS_CACHE[key] = stats
    return stats
