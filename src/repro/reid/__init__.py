"""Cross-camera object re-identification (Section IV-C).

The controller must recognise when two detections from different
views are the same physical object; otherwise one person would be
counted once per camera and the global accuracy estimate would be
wrong.  The paper's recipe, implemented here: project each detection's
ground-contact point (bottom-centre of its box) through the offline
ground-plane homographies, pre-match detections whose projections
land close together, then verify matches with Mean Color features
under a Mahalanobis distance, and finally fuse the matched
detections' probabilities with Eq. (6).  The paper reduces the colour
features with PCA first; this reproduction compares them unreduced, as
every deployment has since the first version (see DESIGN.md).
"""

from repro.reid.fusion import ObjectGroup
from repro.reid.mahalanobis import MahalanobisMetric
from repro.reid.matcher import CrossCameraMatcher

__all__ = [
    "ObjectGroup",
    "MahalanobisMetric",
    "CrossCameraMatcher",
]
