"""Incremental regrouping of one frame as its detection set is edited.

Greedy selection (Section IV-B.3) regroups a frame once per added
camera, and downgrade (Section IV-B.4) once per algorithm trial.  Each
edit changes one camera's detections, and a detection's outcome in
:meth:`~repro.reid.matcher.CrossCameraMatcher.group` depends only on
the groups in the 3×3 grid cells around it when it is processed.  So a
frame splits into *components* — the closure of "detection examined
group", camera-excluded groups included — and a component groups the
same way whether it is clustered alone or with the rest of the frame.

An edit re-feeds only the *dirty* components: those holding a removed
detection, plus every component whose footprint (the bounding box of
the cells of its members' ground points and of its centroids over
time) lies within one cell of an added detection.  The re-fed run is
checked against the clean components: if a cell of its footprint,
dilated by one cell, reaches one, that component joins the dirty set
and the run is repeated (the fixpoint).  When nothing is reached, no
detection of either side can have seen a group of the other side, so
the clean groupings carry forward unchanged and the result is
bit-identical to regrouping the whole frame.  Groups merge back in
creation order — the order of their seed detections — which is the
order ``group`` returns them in.

The fixpoint alone makes the result exact: by induction over
``group``'s processing order, a detection whose 3×3 cells hold no
group of the other side makes the same choice in the merged run as in
its own.  The closure only makes components coarse enough that few
edits need a second pass; a camera-excluded group it links cannot
change the linking detection's choice unless that group is re-fed,
and then the fixpoint reaches the detection's component.

``group`` sorts by descending score with ties in input order.  A
detection's place in that order is its *key* ``(-score, position,
rank)``: ``position`` is its camera's place in ``group``'s input and
``rank`` its index in that camera's detection list.  A group's key is
its seed's, the first member.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.detection.base import Detection
from repro.reid.fusion import ObjectGroup
from repro.reid.matcher import (
    CrossCameraMatcher,
    GroupingMemo,
    GroupingRun,
    _grid_cell,
)

#: ``(-score, position, rank, detection)``: a detection with its key.
#: Items never compare past ``rank``.
Item = tuple[float, int, int, Detection]

#: Component footprints are indexed by tiles of 2**_TILE_SHIFT grid
#: cells on a side.
_TILE_SHIFT = 3


class _Component:
    """An independent part of a frame's grouping: its groups and the
    footprint ``x0..x1`` × ``y0..y1``, the bounding box of every cell a
    member or a centroid occupied (``x0`` None for a detection on the
    horizon line, alone in its group)."""

    __slots__ = ("groups", "x0", "y0", "x1", "y1")

    def __init__(self) -> None:
        self.groups: list[ObjectGroup] = []
        self.x0: int | None = None

    def tiles(self):
        """The index tiles the footprint overlaps (None without one)."""
        if self.x0 is None:
            return (None,)
        shift = _TILE_SHIFT
        return [
            (tx, ty)
            for tx in range(self.x0 >> shift, (self.x1 >> shift) + 1)
            for ty in range(self.y0 >> shift, (self.y1 >> shift) + 1)
        ]


class FramePatch:
    """An uncommitted edit of a :class:`FrameRegrouping`: the detections
    of the camera at ``position`` become ``added``; the ``dirty``
    components leave, ``components`` join."""

    __slots__ = (
        "position",
        "added",
        "probabilities",
        "components",
        "dirty",
        "removed_at",
        "inserted",
    )

    def __init__(
        self,
        position: int,
        added: list[Detection],
        probabilities: np.ndarray,
        components: list[_Component],
        dirty: set[_Component],
        removed_at: list[int],
        inserted: list[tuple[int, ObjectGroup]],
    ) -> None:
        self.position = position
        self.added = added
        #: Fused probabilities of the edited frame, in creation order.
        self.probabilities = probabilities
        self.components = components
        self.dirty = dirty
        #: Ascending positions of the dirty groups in the frame's order.
        self.removed_at = removed_at
        #: ``(position after removal, group)`` of each new group,
        #: ascending.
        self.inserted = inserted


class FrameRegrouping:
    """One frame's grouping, kept split into components under edits.

    ``groups`` and ``probabilities`` are always equal, group for group
    and member for member, to ``group`` over the current detections:
    ``lists[p]`` for each input position ``p`` in turn (none where
    ``p`` is missing).  Each edit replaces the detections at one
    position.
    """

    def __init__(
        self,
        matcher: CrossCameraMatcher,
        memo: GroupingMemo,
        positions: dict[str, int],
        lists: dict[int, list[Detection]],
    ) -> None:
        """Group ``lists`` from scratch; ``positions`` maps each camera
        to its position, as the owner updates it."""
        self.matcher = matcher
        self.memo = memo
        self._positions = positions
        self._lists = lists
        items = sorted(
            (-det.score, position, rank, det)
            for position, detections in lists.items()
            for rank, det in enumerate(detections)
        )
        run = GroupingRun(matcher, memo, track=True)
        run.feed([item[3] for item in items])
        components, new = _split(run, items)
        self.groups: list[ObjectGroup] = run.groups
        self.probabilities = np.array([p for _, _, p in new])
        #: The components by the index tiles their footprint overlaps;
        #: those without one under None.
        self._by_tile: dict[tuple[int, int] | None, list[_Component]] = {}
        self._index(components)

    def _key(self, det: Detection) -> tuple[float, int, int]:
        """A current detection's key."""
        position = self._positions[det.camera_id]
        for rank, other in enumerate(self._lists[position]):
            if other is det:
                return -det.score, position, rank
        raise KeyError(f"{det!r} is not in this frame")

    def _place(self, key: tuple) -> int:
        """Where a group of key ``key`` goes in ``groups``."""
        groups = self.groups
        low, high = 0, len(groups)
        while low < high:
            middle = (low + high) // 2
            if self._key(groups[middle].detections[0]) < key:
                low = middle + 1
            else:
                high = middle
        return low

    def _index(self, components: list[_Component]) -> None:
        by_tile = self._by_tile
        for component in components:
            for tile in component.tiles():
                by_tile.setdefault(tile, []).append(component)

    def _near(self, cells, dirty: set[_Component]) -> set[_Component]:
        """Clean components whose footprint lies within one cell of
        ``cells``."""
        by_tile = self._by_tile
        reached: set[_Component] = set()
        for gx, gy in cells:
            for tx in range(
                (gx - 1) >> _TILE_SHIFT, ((gx + 1) >> _TILE_SHIFT) + 1
            ):
                for ty in range(
                    (gy - 1) >> _TILE_SHIFT, ((gy + 1) >> _TILE_SHIFT) + 1
                ):
                    for c in by_tile.get((tx, ty), ()):
                        if (
                            c.x0 - 1 <= gx <= c.x1 + 1
                            and c.y0 - 1 <= gy <= c.y1 + 1
                        ):
                            reached.add(c)
        reached.difference_update(dirty)
        return reached

    def _cell_of(self, detection: Detection) -> tuple[int, int] | None:
        points = self.memo.points
        point = points.get(id(detection))
        if point is None:
            point = points[id(detection)] = self.matcher._project(detection)
        return _grid_cell(point[0], point[1], self.matcher._cell_side)

    def _holding(self, detection: Detection) -> _Component:
        """The component a current detection belongs to: its footprint
        holds the detection's own cell."""
        cell = self._cell_of(detection)
        tile = (
            None
            if cell is None
            else (cell[0] >> _TILE_SHIFT, cell[1] >> _TILE_SHIFT)
        )
        for component in self._by_tile[tile]:
            for group in component.groups:
                for det in group.detections:
                    if det is detection:
                        return component
        raise KeyError(f"{detection!r} is not in this frame")

    def edit(self, position: int, added: list[Detection]) -> FramePatch:
        """Regroup the frame with ``added`` as the detections at input
        ``position``; nothing changes until :meth:`commit`."""
        removed = self._lists.get(position, ())
        added_items = [
            (-det.score, position, rank, det) for rank, det in enumerate(added)
        ]
        dirty = {self._holding(det) for det in removed}
        gone = {id(det) for det in removed}
        cells = [self._cell_of(det) for det in added]
        dirty |= self._near([c for c in cells if c is not None], dirty)
        while True:
            items = [
                (*self._key(det), det)
                for component in dirty
                for group in component.groups
                for det in group.detections
                if id(det) not in gone
            ]
            items.extend(added_items)
            items.sort()
            run = GroupingRun(self.matcher, self.memo, track=True)
            run.feed([item[3] for item in items])
            reached = self._near(set().union(*run.trails), dirty)
            if not reached:
                break
            dirty |= reached
        components, new = _split(run, items)
        removed_at = sorted(
            self._place(self._key(group.detections[0]))
            for component in dirty
            for group in component.groups
        )
        inserted = []
        for key, group, _ in new:
            at = self._place(key)
            inserted.append((at - bisect_left(removed_at, at), group))
        probabilities = np.insert(
            np.delete(self.probabilities, removed_at),
            [at for at, _ in inserted],
            [probability for _, _, probability in new],
        )
        return FramePatch(
            position,
            added,
            probabilities,
            components,
            dirty,
            removed_at,
            inserted,
        )

    def groups_after(self, patch: FramePatch) -> list[ObjectGroup]:
        """The groups the frame holds once ``patch`` is committed."""
        kept: list[ObjectGroup] = []
        start = 0
        for at in patch.removed_at:
            kept.extend(self.groups[start:at])
            start = at + 1
        kept.extend(self.groups[start:])
        spliced: list[ObjectGroup] = []
        start = 0
        for at, group in patch.inserted:
            spliced.extend(kept[start:at])
            spliced.append(group)
            start = at
        spliced.extend(kept[start:])
        return spliced

    def commit(self, patch: FramePatch) -> None:
        """Make ``patch`` (an edit of the current state) current."""
        self.groups = self.groups_after(patch)
        self.probabilities = patch.probabilities
        self._lists[patch.position] = patch.added
        by_tile = self._by_tile
        for component in patch.dirty:
            for tile in component.tiles():
                members = by_tile[tile]
                members.remove(component)
                if not members:
                    del by_tile[tile]
        self._index(patch.components)


def _split(
    run: GroupingRun, items: list[Item]
) -> tuple[list[_Component], list[tuple[tuple, ObjectGroup, float]]]:
    """The tracked ``run`` over ``items`` cut into its components, and
    its groups as ``(key, group, fused probability)`` in creation
    order."""
    by_root: dict[int, _Component] = {}
    footprints: dict[int, set[tuple[int, int]]] = {}
    new: list[tuple[tuple, ObjectGroup, float]] = []
    groups = run.groups
    trails = run.trails
    for item, index in zip(items, run.assigned):
        if index < len(new):
            continue
        # The first member of a group is its seed.
        group = groups[index]
        new.append((item[:3], group, group.fused_probability))
        root = run.component_of(index)
        component = by_root.get(root)
        if component is None:
            component = by_root[root] = _Component()
            footprints[root] = set()
        component.groups.append(group)
        footprints[root] |= trails[index]
    for root, component in by_root.items():
        cells = footprints[root]
        if cells:
            xs = [x for x, _ in cells]
            ys = [y for _, y in cells]
            component.x0, component.y0 = min(xs), min(ys)
            component.x1, component.y1 = max(xs), max(ys)
    return list(by_root.values()), new
