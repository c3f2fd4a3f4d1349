"""Cross-camera detection grouping.

For every detection the controller extracts the centre of the bottom
edge of its bounding box — assumed to touch the ground — and projects
it through the camera's offline ground-plane homography into world
coordinates.  Detections from different cameras whose projections land
within a gating radius are candidate matches; the match is accepted
only if their colour features also agree under the Mahalanobis metric
(Section IV-C: colour verification "reduces the false matches due to
imperfect homography matching").
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.detection.base import Detection
from repro.geometry.homography import Homography
from repro.reid.fusion import ObjectGroup
from repro.reid.mahalanobis import MahalanobisMetric

DEFAULT_GROUND_RADIUS_M = 0.9
DEFAULT_COLOR_THRESHOLD = 3.5

#: Stand-in grid index for a coordinate whose quotient by the cell side
#: overflows a float; it lies beyond every ``math.floor`` of a finite
#: double, so its neighbouring indices hold no other cell.
_FAR_INDEX = 1 << 1100


class GroupingMemo:
    """Values :meth:`CrossCameraMatcher.group` computes per detection
    (ground point, reduced colour feature) and per detection pair
    (colour distance).

    Keys are ``id()``s and the memo holds no reference to the
    detections, so it must not outlive them: a recycled id would
    return another detection's values.  Each
    :class:`~repro.core.selection.AssessmentData` owns one, since its
    frames hold the detections that selection regroups; every other
    caller gets a fresh memo per call.
    """

    __slots__ = ("points", "reduced", "colors")

    def __init__(self) -> None:
        self.points: dict[int, tuple[float, float]] = {}
        self.reduced: dict[int, np.ndarray] = {}
        self.colors: dict[tuple[int, int], float] = {}


def _cell_side(radius: float) -> float:
    """Side of the grid cells that bucket group centroids.

    The smallest power of two above ``radius * (1 + 1e-9)``.  A power
    of two makes ``x / side`` exact, and the margin exceeds the few
    ulps by which a scalar gating distance below the radius can
    understate the true one.  So a centroid within the radius of a
    point is always within one cell of it on each axis.
    """
    return math.ldexp(1.0, math.frexp(radius * (1.0 + 1e-9))[1])


def _axis_index(quotient: float) -> int:
    if math.isfinite(quotient):
        return math.floor(quotient)
    return _FAR_INDEX if quotient > 0 else -_FAR_INDEX


def _grid_cell(x: float, y: float, side: float) -> tuple[int, int] | None:
    """The grid cell of ground point ``(x, y)``; None if it is not
    finite (a projection on the horizon line), since no distance to
    such a point is ever below the radius."""
    try:
        return math.floor(x / side), math.floor(y / side)
    except (OverflowError, ValueError):
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
        # A finite coordinate whose quotient overflows: float spacing
        # there dwarfs the radius, so points within it are equal and
        # share the stand-in index.
        return _axis_index(x / side), _axis_index(y / side)


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


class CrossCameraMatcher:
    """Groups one frame's multi-camera detections into objects."""

    def __init__(
        self,
        image_to_ground: dict[str, Homography],
        ground_radius: float = DEFAULT_GROUND_RADIUS_M,
        color_metric: MahalanobisMetric | None = None,
        color_threshold: float = DEFAULT_COLOR_THRESHOLD,
        use_color: bool = True,
    ) -> None:
        """
        Args:
            image_to_ground: Per-camera homography mapping image pixels
                to world ground-plane coordinates (from camera
                calibration).
            ground_radius: Gating distance (metres) on the ground plane.
            color_metric: Fitted Mahalanobis metric over colour
                features; required when ``use_color`` is True.
            color_threshold: Maximum colour distance for a match.
            use_color: Disable to measure the homography-only ablation.
        """
        if not image_to_ground:
            raise ValueError("need at least one camera homography")
        _require_positive("ground_radius", ground_radius)
        _require_positive("color_threshold", color_threshold)
        if use_color and color_metric is not None and not color_metric.is_fitted:
            raise ValueError("color_metric must be fitted before use")
        self.image_to_ground = dict(image_to_ground)
        self.ground_radius = ground_radius
        self.color_metric = color_metric
        self.color_threshold = color_threshold
        self.use_color = use_color and color_metric is not None
        self._cell_side = _cell_side(ground_radius)

    def _project(self, detection: Detection) -> tuple[float, float]:
        """:meth:`ground_point` as two floats.

        The 3-vector product computes the same values as
        ``apply_homography`` without its batching scaffolding
        (verified bit-identical).
        """
        try:
            homography = self.image_to_ground[detection.camera_id]
        except KeyError:
            raise KeyError(
                f"no ground homography for camera {detection.camera_id!r}"
            ) from None
        x, y = detection.bbox.bottom_center
        projected = homography.matrix @ np.array([x, y, 1.0])
        w = projected[2]
        if w != 0.0 and math.isfinite(w):
            point = projected[:2] / w
        else:
            # A point on the horizon line projects to ±inf/NaN, as in
            # ``apply_homography``, and just as quietly.
            with np.errstate(divide="ignore", invalid="ignore"):
                point = projected[:2] / w
        return float(point[0]), float(point[1])

    def _reduced_feature(
        self, detection: Detection, memo: GroupingMemo
    ) -> np.ndarray:
        """The detection's PCA-reduced colour feature, memoised.

        ``MahalanobisMetric.distance`` re-reduces both endpoints on
        every call; caching the reduction per detection leaves exactly
        the per-pair ``sqrt(diff @ P @ diff)`` — the same operations
        on the same values, computed once per detection instead of
        once per pair.
        """
        key = id(detection)
        reduced = memo.reduced.get(key)
        if reduced is None:
            reduced = self.color_metric._reduce(detection.color_feature)
            memo.reduced[key] = reduced
        return reduced

    def _color_distance(
        self, a: Detection, b: Detection, memo: GroupingMemo
    ) -> float:
        """`MahalanobisMetric.distance` with the reductions memoised;
        the remaining arithmetic is the metric's own, verbatim."""
        diff = self._reduced_feature(a, memo) - self._reduced_feature(b, memo)
        value = float(diff @ self.color_metric._precision @ diff)
        return float(np.sqrt(max(0.0, value)))

    def _color_compatible_cached(
        self,
        detection: Detection,
        members: list[Detection],
        memo: GroupingMemo,
    ) -> bool:
        """Does ``detection``'s colour agree with every member's?  The
        grouping scan calls this tens of thousands of times per
        selection, so the pair memo lookup is inlined."""
        colors = memo.colors
        threshold = self.color_threshold
        det_id = id(detection)
        for member in members:
            member_id = id(member)
            key = (
                (det_id, member_id)
                if det_id <= member_id
                else (member_id, det_id)
            )
            dist = colors.get(key)
            if dist is None:
                dist = colors[key] = self._color_distance(
                    detection, member, memo
                )
            if dist > threshold:
                return False
        return True

    def ground_point(self, detection: Detection) -> np.ndarray:
        """Project a detection's bottom-centre to world coordinates."""
        try:
            homography = self.image_to_ground[detection.camera_id]
        except KeyError:
            raise KeyError(
                f"no ground homography for camera {detection.camera_id!r}"
            ) from None
        return homography.apply(np.array(detection.bbox.bottom_center))

    def group(
        self,
        detections: list[Detection],
        memo: GroupingMemo | None = None,
    ) -> list[ObjectGroup]:
        """Cluster one frame's detections across cameras.

        Highest-confidence detections seed groups first; a detection
        joins the nearest group within the gating radius whose members
        come from other cameras and whose colours agree, otherwise it
        starts a new group.

        This restates :meth:`group_reference` with two savings.  Group
        centroids sit in a uniform ground-plane grid (see
        :func:`_cell_side`), so a detection measures only the groups in
        the 3×3 cells around it instead of every group; a centroid that
        crosses a cell edge as members join is re-bucketed.  Distances
        and centroid updates run on plain Python floats, which execute
        the same IEEE-double operations as the reference's elementwise
        numpy expressions.  The one numerical difference is the gating
        distance itself — ``math.sqrt(dx*dx + dy*dy)`` instead of the
        reference's BLAS-backed ``np.linalg.norm`` — so membership can
        differ from the reference only when a distance sits within one
        ulp of the radius or of a competing group's distance.

        The per-detection step lives in :class:`GroupingRun`: this is a
        fresh run fed every detection in decreasing score order, the
        same step incremental regrouping re-feeds.

        Args:
            detections: One frame's detections, any cameras.
            memo: Projections and colour distances to reuse across
                calls over the same detections (see
                :class:`GroupingMemo`); a fresh one by default.
        """
        run = GroupingRun(self, memo if memo is not None else GroupingMemo())
        run.feed(sorted(detections, key=lambda d: -d.score))
        return run.groups

    def group_reference(
        self,
        detections: list[Detection],
        memo: GroupingMemo | None = None,
    ) -> list[ObjectGroup]:
        """The unmemoised linear-scan clustering loop, kept verbatim as
        the pinned oracle for equivalence tests and as the honest
        per-call baseline for the scale benchmarks.  ``memo`` is
        accepted and ignored, so the oracle can stand in for
        :meth:`group`."""
        groups: list[ObjectGroup] = []
        centroids: list[np.ndarray] = []
        for det in sorted(detections, key=lambda d: -d.score):
            point = self.ground_point(det)
            best_group = None
            best_dist = self.ground_radius
            for idx, group in enumerate(groups):
                if det.camera_id in group.camera_ids:
                    continue
                dist = float(np.linalg.norm(point - centroids[idx]))
                if dist < best_dist and self._reference_color_compatible(
                    det, group
                ):
                    best_dist = dist
                    best_group = idx
            if best_group is None:
                groups.append(
                    ObjectGroup(
                        detections=[det],
                        ground_point=(float(point[0]), float(point[1])),
                    )
                )
                centroids.append(point)
            else:
                group = groups[best_group]
                count = len(group)
                group.add(det)
                centroids[best_group] = (
                    centroids[best_group] * count + point
                ) / (count + 1)
                group.ground_point = (
                    float(centroids[best_group][0]),
                    float(centroids[best_group][1]),
                )
        return groups

    def _reference_color_compatible(
        self, detection: Detection, group: ObjectGroup
    ) -> bool:
        if not self.use_color:
            return True
        for member in group.detections:
            dist = self.color_metric.distance(
                detection.color_feature, member.color_feature
            )
            if dist > self.color_threshold:
                return False
        return True

    def reid_precision(
        self, groups: list[ObjectGroup]
    ) -> float:
        """Evaluation helper: fraction of multi-member groups whose
        members all share the same ground-truth identity (the paper
        reports >90% re-identification precision)."""
        multi = [g for g in groups if len(g) > 1]
        if not multi:
            return 1.0
        pure = sum(
            1
            for g in multi
            if g.is_true_object
            and len({d.truth_id for d in g.detections}) == 1
        )
        return pure / len(multi)


class GroupingRun:
    """One frame's clustering in progress: the state of
    :meth:`CrossCameraMatcher.group` between two detections.

    :meth:`feed` runs the per-detection step of ``group`` for each
    detection given, in the order given; ``group`` is a fresh run fed
    every detection in decreasing score order.  ``groups`` is the
    result so far, in creation order.

    With ``track`` set the run also records what incremental
    regrouping (:mod:`repro.reid.incremental`) needs to split a frame
    into independent parts: ``assigned`` (the group each fed detection
    ended in), ``trails`` (per group, the grid cells of its centroids
    and of its members' ground points) and a union-find over groups
    that links every group a detection *examined* — every group in the
    3×3 cells around it, whether its camera excluded it or not — to
    the group the detection ended in (:meth:`component_of`).
    """

    __slots__ = (
        "matcher",
        "memo",
        "groups",
        "assigned",
        "trails",
        "_parents",
        "_cameras",
        "_centroids",
        "_cells",
        "_grid",
    )

    def __init__(
        self,
        matcher: CrossCameraMatcher,
        memo: GroupingMemo,
        track: bool = False,
    ) -> None:
        self.matcher = matcher
        self.memo = memo
        self.groups: list[ObjectGroup] = []
        self.assigned: list[int] | None = [] if track else None
        self.trails: list[set[tuple[int, int]]] | None = (
            [] if track else None
        )
        self._parents: list[int] | None = [] if track else None
        self._cameras: list[set[str]] = []
        self._centroids: list[tuple[float, float]] = []
        self._cells: list[tuple[int, int] | None] = []
        self._grid: dict[tuple[int, int], list[int]] = {}

    def component_of(self, index: int) -> int:
        """Union-find root of group ``index`` (tracked runs only)."""
        parents = self._parents
        while parents[index] != index:
            parents[index] = parents[parents[index]]
            index = parents[index]
        return index

    def feed(self, detections: Iterable[Detection]) -> None:
        """Cluster ``detections`` into the groups built so far.

        Each detection joins the nearest group within the gating
        radius whose members come from other cameras and whose colours
        agree, otherwise it starts a new group.
        """
        matcher = self.matcher
        memo = self.memo
        points = memo.points
        groups = self.groups
        group_cameras = self._cameras
        centroids = self._centroids
        cells = self._cells
        grid = self._grid
        assigned = self.assigned
        trails = self.trails
        parents = self._parents
        track = parents is not None
        radius = matcher.ground_radius
        side = matcher._cell_side
        use_color = matcher.use_color
        for det in detections:
            key = id(det)
            point = points.get(key)
            if point is None:
                point = points[key] = matcher._project(det)
            px, py = point
            camera = det.camera_id
            cell = _grid_cell(px, py, side)
            # The reference scan accepts strictly-improving distances,
            # so colour-rejected groups never update the best: the
            # winner is the colour-compatible eligible group of
            # minimal (distance, index).  Sorting the gated candidates
            # and taking the first colour pass computes the same
            # winner with the fewest colour checks.
            candidates: list[tuple[float, int]] = []
            if cell is not None:
                gx, gy = cell
                for nx in (gx - 1, gx, gx + 1):
                    for ny in (gy - 1, gy, gy + 1):
                        for idx in grid.get((nx, ny), ()):
                            if camera in group_cameras[idx]:
                                continue
                            cx, cy = centroids[idx]
                            dx = px - cx
                            dy = py - cy
                            dist = math.sqrt(dx * dx + dy * dy)
                            if dist < radius:
                                candidates.append((dist, idx))
                candidates.sort()
            best_group = None
            for _, idx in candidates:
                if not use_color or matcher._color_compatible_cached(
                    det, groups[idx].detections, memo
                ):
                    best_group = idx
                    break
            if best_group is None:
                best_group = len(groups)
                if cell is not None:
                    grid.setdefault(cell, []).append(best_group)
                groups.append(
                    ObjectGroup(detections=[det], ground_point=(px, py))
                )
                group_cameras.append({camera})
                centroids.append((px, py))
                cells.append(cell)
                moved = cell
            else:
                group = groups[best_group]
                count = len(group)
                group.add(det)
                group_cameras[best_group].add(camera)
                cx, cy = centroids[best_group]
                # Running mean keeps the centroid stable as members join.
                centroid = (
                    (cx * count + px) / (count + 1),
                    (cy * count + py) / (count + 1),
                )
                centroids[best_group] = centroid
                group.ground_point = centroid
                moved = _grid_cell(centroid[0], centroid[1], side)
                if moved != cells[best_group]:
                    if cells[best_group] is not None:
                        grid[cells[best_group]].remove(best_group)
                    if moved is not None:
                        grid.setdefault(moved, []).append(best_group)
                    cells[best_group] = moved
            if track:
                if best_group == len(parents):
                    parents.append(best_group)
                    trails.append(set())
                trail = trails[best_group]
                if cell is not None:
                    trail.add(cell)
                if moved is not None:
                    trail.add(moved)
                assigned.append(best_group)
                if cell is None:
                    continue
                # The groups this detection examined: those in its 3×3
                # cells, as they stand after it joined one (which only
                # adds its own group, or moves that group).
                root = self.component_of(best_group)
                for nx in (gx - 1, gx, gx + 1):
                    for ny in (gy - 1, gy, gy + 1):
                        for idx in grid.get((nx, ny), ()):
                            other = self.component_of(idx)
                            if other != root:
                                parents[other] = root
