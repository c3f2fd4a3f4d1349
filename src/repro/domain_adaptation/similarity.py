"""Video similarity via the geodesic flow kernel (Eqs. 3-5).

The kernel distance between frame ``m1`` of the training video and
frame ``m2`` of the incoming video is the squared Mahalanobis-like
form  ``(t - v)^T W (t - v)``; Eq. (3) expands it into the three
kernel products.  Eq. (4) averages over all frame pairs, and Eq. (5)
maps the mean distance to a similarity ``exp(-M_d)`` in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.domain_adaptation.gfk import GeodesicFlowKernel, geodesic_flow_kernel
from repro.domain_adaptation.pca import uncentered_basis
from repro.perf.cache import ArrayCache

DEFAULT_SUBSPACE_DIM = 16

#: Gain applied to the total manifold distance before the exponential
#: of Eq. (5).  With unit-norm frame features the raw distances are
#: small; this scale maps them into the paper's similarity range
#: (diagonal ~0.7-0.8, cross-dataset ~0.4 in Table V).
DEFAULT_DISTANCE_SCALE = 0.4

#: Weight of the subspace-alignment term in the total distance: the
#: mean squared sine of the most-aligned half of the principal angles.
#: Section III's premise is that "a small distance between two
#: projected points in the manifold ... indicates a high level of
#: similarity"; the alignment term is that manifold distance.  The
#: kernel distance of Eq. (3) alone cannot play this role across
#: training items, because each pair is measured under its *own*
#: kernel W, which by construction discounts exactly the directions in
#: which misaligned domains differ.
DEFAULT_ANGLE_WEIGHT = 2.0


def _normalise_rows(features: np.ndarray) -> np.ndarray:
    """L2-normalise each frame feature so distances are scale-free."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return features / norms


def kernel_distance_matrix(
    kernel: GeodesicFlowKernel,
    t: np.ndarray,
    v: np.ndarray,
    include_residual: bool = True,
) -> np.ndarray:
    """Eq. (3): the ``(k1, k2)`` matrix of pairwise kernel distances.

    ``K[m1, m2] = t_m1 W t_m1 + v_m2 W v_m2 - 2 t_m1 W v_m2``.
    Values are clipped at zero to absorb floating-point jitter (the
    form is non-negative because W is positive semi-definite).

    When ``include_residual`` is set (the default), the energy of the
    difference vector *outside* the union of the two subspaces is
    added at full weight.  The flow kernel is blind to that component,
    so without the residual a pair of badly misaligned videos can
    measure as *closer* than two clips of the same scene — distances
    computed under different kernels would not be comparable across
    training items, which Section IV-B.2 requires.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    t_sq = kernel.quadratic(t)
    v_sq = kernel.quadratic(v)
    cross = kernel.apply(t, v)
    distances = t_sq[:, None] + v_sq[None, :] - 2.0 * cross
    if include_residual:
        # ||(I - M M^T)(t - v)||^2 = ||t - v||^2 - ||M^T (t - v)||^2,
        # expanded pairwise from norms and inner products.
        pt = t @ kernel.factor
        pv = v @ kernel.factor
        full_sq = (
            np.sum(t**2, axis=1)[:, None]
            + np.sum(v**2, axis=1)[None, :]
            - 2.0 * t @ v.T
        )
        span_sq = (
            np.sum(pt**2, axis=1)[:, None]
            + np.sum(pv**2, axis=1)[None, :]
            - 2.0 * pt @ pv.T
        )
        distances = distances + np.maximum(full_sq - span_sq, 0.0)
    return np.maximum(distances, 0.0)


def mean_manifold_distance(
    kernel: GeodesicFlowKernel, t: np.ndarray, v: np.ndarray
) -> float:
    """Eq. (4): mean of all pairwise kernel distances."""
    return float(kernel_distance_matrix(kernel, t, v).mean())


def video_similarity(
    t: np.ndarray,
    v: np.ndarray,
    subspace_dim: int = DEFAULT_SUBSPACE_DIM,
    normalise: bool = True,
    distance_scale: float = DEFAULT_DISTANCE_SCALE,
    angle_weight: float = DEFAULT_ANGLE_WEIGHT,
    cache: ArrayCache | None = None,
) -> float:
    """Eqs. (1)-(5) end to end: similarity of two feature stacks.

    The total manifold distance combines the mean kernel distance of
    Eqs. (3)-(4) with the Grassmann alignment of the two subspaces
    (mean squared sine of the most-aligned half of the principal
    angles) — see :data:`DEFAULT_ANGLE_WEIGHT` for why the alignment
    term is required when ranking across training items.

    Args:
        t: ``(k1, alpha)`` training-video frame features.
        v: ``(k2, alpha)`` incoming-video frame features.
        subspace_dim: PCA dimension ``beta``.
        normalise: L2-normalise frame features first (recommended; the
            exponential in Eq. (5) saturates otherwise).
        distance_scale: Gain on the total manifold distance.
        angle_weight: Weight of the subspace-alignment term.
        cache: Optional :class:`~repro.perf.cache.ArrayCache` memoising
            the per-stack PCA bases and the GFK factors under content
            hashes; repeated comparisons against unchanged stacks skip
            both SVDs.

    Returns:
        Similarity in ``(0, 1]``; higher means more alike.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if t.shape[1] != v.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {t.shape[1]} vs {v.shape[1]}"
        )
    if normalise:
        t = _normalise_rows(t)
        v = _normalise_rows(v)
    x = uncentered_basis(t, subspace_dim, cache=cache)
    z = uncentered_basis(v, subspace_dim, cache=cache)
    # Rank may differ; truncate to the common dimension so the flow is
    # between subspaces of equal size, as Section III assumes.
    common = min(x.shape[1], z.shape[1])
    kernel = geodesic_flow_kernel(x[:, :common], z[:, :common], cache=cache)
    distance = mean_manifold_distance(kernel, t, v)
    aligned = np.sort(kernel.angles)[: max(1, common // 2)]
    alignment = float(np.mean(np.sin(aligned) ** 2))
    total = distance + angle_weight * alignment
    return float(np.exp(-distance_scale * total))


@dataclass
class VideoComparator:
    """Compares incoming videos against a library of training videos.

    This is the controller-side component of Section IV-B.2: it holds
    the features of every training item and, given an uploaded feature
    stack, returns per-item similarities and the best match.
    """

    subspace_dim: int = DEFAULT_SUBSPACE_DIM
    distance_scale: float = DEFAULT_DISTANCE_SCALE
    angle_weight: float = DEFAULT_ANGLE_WEIGHT
    #: Memoises training/incoming PCA bases and GFK factors across
    #: calibration passes; the training side never recomputes after
    #: the first pass, and a repeated incoming stack hits outright.
    cache: ArrayCache = field(default_factory=ArrayCache)
    _library: dict[str, np.ndarray] = field(default_factory=dict)

    def add_training_video(self, name: str, features: np.ndarray) -> None:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if name in self._library:
            raise ValueError(f"training video {name!r} already registered")
        self._library[name] = _normalise_rows(features)

    def similarities(self, features: np.ndarray) -> dict[str, float]:
        """Similarity of the incoming video to every training item."""
        if not self._library:
            raise RuntimeError("no training videos registered")
        incoming = _normalise_rows(features)
        return {
            name: video_similarity(
                stored,
                incoming,
                self.subspace_dim,
                normalise=False,
                distance_scale=self.distance_scale,
                angle_weight=self.angle_weight,
                cache=self.cache,
            )
            for name, stored in self._library.items()
        }

    def best_match(self, features: np.ndarray) -> tuple[str, float]:
        """Name and similarity of the closest training item."""
        sims = self.similarities(features)
        best = max(sims, key=sims.get)
        return best, sims[best]
