"""Per-frame processing cost models.

Each algorithm's energy and latency per frame follow a power law in
the frame's megapixel count, ``cost = a * MP^b``, with ``(a, b)``
fitted to the two resolutions the paper measured on the Asus Zen II
testbed: 360x288 (datasets #1/#3, Table II) and 1024x768 (dataset #2,
Table III).  At those resolutions the model reproduces the paper's
Joules and seconds per frame exactly; in between it interpolates.

Fitted behaviour worth noting: C4's cost is nearly resolution-flat
(its contour extraction dominates), LSVM scales ~linearly, ACF is
sub-linear (channel pyramids), HOG slightly super-linear.
"""

from __future__ import annotations

from dataclasses import dataclass

# (a, b) per algorithm for energy in Joules per frame.
_ENERGY_PARAMS: dict[str, tuple[float, float]] = {
    "HOG": (12.83, 1.0914),
    "ACF": (0.3766, 0.7423),
    "C4": (5.641, 0.0604),
    "LSVM": (31.85, 0.9989),
}

# (a, b) per algorithm for latency in seconds per frame.
_TIME_PARAMS: dict[str, tuple[float, float]] = {
    "HOG": (3.746, 0.4038),
    "ACF": (0.4715, 0.6842),
    "C4": (7.695, 0.5140),
    "LSVM": (39.13, 0.8130),
}


def _power_law(params: tuple[float, float], megapixels: float) -> float:
    a, b = params
    return a * megapixels**b


def processing_energy(algorithm: str, megapixels: float) -> float:
    """Joules to process one frame of ``megapixels`` with ``algorithm``."""
    if megapixels <= 0:
        raise ValueError(f"megapixels must be positive, got {megapixels}")
    try:
        params = _ENERGY_PARAMS[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; "
            f"known: {sorted(_ENERGY_PARAMS)}"
        ) from None
    return _power_law(params, megapixels)


def processing_time(algorithm: str, megapixels: float) -> float:
    """Seconds to process one frame of ``megapixels`` with ``algorithm``."""
    if megapixels <= 0:
        raise ValueError(f"megapixels must be positive, got {megapixels}")
    try:
        params = _TIME_PARAMS[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; "
            f"known: {sorted(_TIME_PARAMS)}"
        ) from None
    return _power_law(params, megapixels)


@dataclass(frozen=True)
class ProcessingEnergyModel:
    """Energy/latency model bound to one capture resolution.

    Attributes:
        width: Frame width in pixels.
        height: Frame height in pixels.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("resolution must be positive")

    @property
    def megapixels(self) -> float:
        return self.width * self.height / 1e6

    def energy_per_frame(self, algorithm: str) -> float:
        """Joules per frame for ``algorithm`` at this resolution."""
        return processing_energy(algorithm, self.megapixels)

    def time_per_frame(self, algorithm: str) -> float:
        """Seconds per frame for ``algorithm`` at this resolution."""
        return processing_time(algorithm, self.megapixels)

    def cheapest(self, algorithms: list[str]) -> str:
        """The lowest-energy algorithm among ``algorithms``."""
        if not algorithms:
            raise ValueError("algorithms list is empty")
        return min(algorithms, key=self.energy_per_frame)
