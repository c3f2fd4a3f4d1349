"""Environment descriptions for the synthetic datasets.

An :class:`Environment` captures the scene attributes that, per the
paper, determine which detection algorithm works best: indoor versus
outdoor, brightness, amount of background clutter (the Graz "chap"
dataset has furniture that causes false positives), and the capture
resolution (which drives the energy cost of processing a frame).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Environment:
    """Scene-level attributes of a dataset.

    Attributes:
        name: Human-readable identifier, e.g. ``"lab"``.
        family: Coarse environment class used to index detector response
            profiles: ``"indoor_clean"``, ``"indoor_cluttered"`` or
            ``"outdoor"``.
        indoor: Whether the scene is indoors.
        brightness: Mean scene luminance in ``[0, 1]``.
        contrast: Typical object/background contrast in ``[0, 1]``.
        clutter: Density of static distractor structures in ``[0, 1]``;
            drives false-positive generation.
        texture_scale: Spatial scale of background texture (larger means
            smoother backgrounds).
        width: Nominal capture width in pixels (energy model input).
        height: Nominal capture height in pixels.
        seed: Base seed for all environment-derived randomness.
    """

    name: str
    family: str
    indoor: bool
    brightness: float
    contrast: float
    clutter: float
    texture_scale: float
    width: int
    height: int
    seed: int = 0

    def __post_init__(self) -> None:
        valid_families = {
            "indoor_clean", "indoor_cluttered", "outdoor", "night"
        }
        if self.family not in valid_families:
            raise ValueError(
                f"family must be one of {sorted(valid_families)}, "
                f"got {self.family!r}"
            )
        for attr in ("brightness", "contrast", "clutter"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must lie in [0, 1], got {value}")


# The three evaluation environments of Section VI, with attributes taken
# from the paper's dataset descriptions.
LAB = Environment(
    name="lab",
    family="indoor_clean",
    indoor=True,
    brightness=0.65,
    contrast=0.75,
    clutter=0.05,
    texture_scale=24.0,
    width=360,
    height=288,
    seed=101,
)

CHAP = Environment(
    name="chap",
    family="indoor_cluttered",
    indoor=True,
    brightness=0.55,
    contrast=0.55,
    clutter=0.55,
    texture_scale=10.0,
    width=1024,
    height=768,
    seed=202,
)

TERRACE = Environment(
    name="terrace",
    family="outdoor",
    indoor=False,
    brightness=0.85,
    contrast=0.65,
    clutter=0.15,
    texture_scale=40.0,
    width=360,
    height=288,
    seed=303,
)

# An extension beyond the paper's three datasets: the terrace after
# dark.  Low brightness and contrast starve gradient- and contour-
# based detectors; the part-based model degrades most gracefully.
NIGHT = Environment(
    name="night",
    family="night",
    indoor=False,
    brightness=0.22,
    contrast=0.3,
    clutter=0.15,
    texture_scale=40.0,
    width=360,
    height=288,
    seed=404,
)
