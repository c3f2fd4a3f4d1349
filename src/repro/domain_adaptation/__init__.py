"""Domain adaptation on the Grassmann manifold (Section III).

Implements the geodesic-flow-kernel video comparison the paper adopts
from Gong et al. (CVPR 2012): PCA subspaces of the two videos' frame
features are treated as points on the Grassmann manifold
``Gr(beta, R^alpha)``; the geodesic flow between them induces the
kernel ``W`` of Eq. (2); Eqs. (3)–(5) turn it into a kernel distance,
a mean manifold distance, and finally a similarity in ``[0, 1]``.
"""

from repro.domain_adaptation.gfk import geodesic_flow_kernel
from repro.domain_adaptation.similarity import (
    VideoComparator,
    kernel_distance_matrix,
    mean_manifold_distance,
    video_similarity,
)

__all__ = [
    "geodesic_flow_kernel",
    "VideoComparator",
    "kernel_distance_matrix",
    "mean_manifold_distance",
    "video_similarity",
]
