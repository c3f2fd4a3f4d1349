"""Incremental regrouping equals grouping from scratch, bit for bit.

Greedy selection and downgrade edit one camera of an assignment at a
time and regroup only what that camera's detections can reach
(:class:`~repro.core.selection.AssignmentGrouping`).  These properties
replay random greedy growth and downgrade trials over adversarial
ground-plane lattices and compare every prefix and every trial with
:meth:`~repro.reid.matcher.CrossCameraMatcher.group` over the whole
assignment: group order, member order, ground points and the fused
``GlobalAccuracy``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core import selection
from repro.core.accuracy import DesiredAccuracy, estimate_global_accuracy
from repro.core.selection import (
    AssessmentData,
    AssignmentGrouping,
    SelectionEngine,
)
from repro.geometry.homography import Homography
from repro.reid.matcher import CrossCameraMatcher, GroupingMemo, _cell_side
from tests.test_reid import COLORS, _fitted_metric, point_detection

CAMERAS = ["c1", "c2", "c3", "c4", "h"]
ALGORITHMS = ["A", "B", "C"]
#: ``h`` maps image row 128 onto the horizon line (w = 0): its
#: detections there project to ±inf or NaN; row 0 maps to itself.
HORIZON = Homography(
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1 / 128, 1.0]])
)


def _matcher(radius: float, use_color: bool) -> CrossCameraMatcher:
    homographies = {camera: Homography(np.eye(3)) for camera in CAMERAS}
    homographies["h"] = HORIZON
    return CrossCameraMatcher(
        homographies,
        ground_radius=radius,
        color_metric=_fitted_metric(),
        use_color=use_color,
    )


@st.composite
def drift_chain(draw, radius, origin, frame):
    """Add a seed ``s``, a puller ``p`` and a target ``t`` on one line
    to ``frame`` (when the radius allows it).  ``p`` joins ``s`` and
    pulls the centroid back across a cell edge before ``t`` is grouped,
    so ``t`` never sees that group: its component is separate.  ``t``
    lies within the radius of ``s`` alone, so re-assigning ``p``'s
    camera re-feeds ``s``'s component only, and the fixpoint must pull
    ``t``'s in.

    On an axis, with ``s`` a distance ``a`` past the cell edge ``E``:
    ``p`` at ``s - d1`` puts the centroid at ``s - d1/2 < E`` when
    ``d1 > 2a``; ``t`` at ``s + d2`` is two cells from it when
    ``a + d2 > side``.  Both distances stay below the radius, which
    needs ``side - radius < a < radius / 2``."""
    side = _cell_side(radius)
    low, high = side - radius, radius / 2
    if not low < high:
        return
    fraction = st.floats(0.2, 0.8)
    a = low + draw(fraction) * (high - low)
    d1 = 2 * a + draw(fraction) * (radius - 2 * a)
    least = max(side - a, radius - d1 / 2)
    d2 = least + draw(fraction) * (radius - least)
    sign = draw(st.sampled_from([1.0, -1.0]))
    axis = draw(st.sampled_from([0, 1]))
    edge = math.floor(origin[axis] / side) * side
    seed_camera, puller_camera, target_camera = draw(
        st.permutations(CAMERAS[:4])
    )[:3]
    color = COLORS[draw(st.integers(0, len(COLORS) - 1))]
    for camera, offset, score in (
        (seed_camera, a, 0.9),
        (puller_camera, a - d1, 0.8),
        (target_camera, a + d2, 0.7),
    ):
        coords = list(origin)
        coords[axis] = edge + sign * offset
        frame[camera]["A"].append(
            point_detection(camera, *coords, score=score, color=color)
        )


@st.composite
def assessments(draw):
    """Assessment frames on a lattice of half the radius, nudged by a
    few ulps: points near cell edges, exactly a radius apart, in
    negative and tile-scale coordinates, with centroids that drift
    across cell edges as members join, scores tied across cameras, and
    horizon-line points; plus drift chains (see :func:`drift_chain`)."""
    radius = draw(st.sampled_from([0.9, 0.5, 1.0, 1.5, 2.5, 3.0]))
    origin = [
        draw(
            st.sampled_from([0.0, -1600.0, 1600.0])
            | st.floats(-1600.0, 1600.0)
        )
        for _ in range(2)
    ]
    score = st.sampled_from([0.5, 0.7, 0.9]) | st.floats(0.05, 1.0)
    # On one line, centroids drift along chains of neighbours.
    axes = draw(st.sampled_from([(0,), (0, 1)]))
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        frame: dict[str, dict[str, list]] = {}
        for camera in CAMERAS:
            frame[camera] = {}
            for algorithm in ALGORITHMS:
                detections = []
                for _ in range(draw(st.integers(0, 4))):
                    if camera == "h" and draw(st.booleans()):
                        # On the horizon line: x = 0 projects to NaN.
                        x = draw(st.sampled_from([0.0, 3.0, -2.0]))
                        detections.append(
                            point_detection(
                                camera, x, 128.0, score=draw(score)
                            )
                        )
                        continue
                    coords = list(origin)
                    for axis in axes:
                        value = (
                            origin[axis]
                            + draw(st.integers(-6, 6)) * radius / 2
                        )
                        for _ in range(draw(st.integers(0, 3))):
                            value = math.nextafter(
                                value,
                                draw(st.sampled_from([-math.inf, math.inf])),
                            )
                        coords[axis] = value
                    if camera == "h":
                        coords[1] = 0.0
                    detections.append(
                        point_detection(
                            camera,
                            coords[0],
                            coords[1],
                            score=draw(score),
                            color=COLORS[draw(st.integers(0, len(COLORS) - 1))],
                        )
                    )
                frame[camera][algorithm] = detections
        for _ in range(draw(st.integers(0, 2))):
            chain_origin = [
                value + draw(st.integers(-3, 3)) * 4 * radius
                for value in origin
            ]
            draw(drift_chain(radius, chain_origin, frame))
        frames.append(frame)
    return radius, AssessmentData(frames=frames)


#: The limit fixture patches a module constant, the same for every
#: example, so the function-scoped fixture is safe to share.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]
#: Report a counterexample as found: shrinking one over these lattices
#: ran for minutes, so a regression would stall CI before reporting.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

edits = st.tuples(
    st.permutations(CAMERAS),
    st.lists(
        st.tuples(
            st.sampled_from(CAMERAS), st.sampled_from(ALGORITHMS), st.booleans()
        ),
        max_size=8,
    ),
)


def _from_scratch(matcher, assessment, assignment):
    memo = GroupingMemo()
    return [
        matcher.group(
            [
                det
                for camera, algorithm in assignment.items()
                for det in frame[camera][algorithm]
            ],
            memo,
        )
        for frame in assessment.frames
    ]


def frame_groups(grouping, trial=None):
    """Each frame's groups held by ``grouping``, in the order ``group``
    returns them: now, or once ``trial`` (of the current state) is
    committed."""
    if trial is not None and trial.patches is None:
        assignment = dict(grouping.assignment)
        assignment[trial.camera_id] = trial.algorithm
        return grouping._regroup(assignment)
    if grouping._split is None:
        return grouping._regroup(grouping.assignment)
    if trial is None:
        return [regrouping.groups for regrouping in grouping._split]
    return [
        regrouping.groups
        if patch is None
        else regrouping.groups_after(patch)
        for regrouping, patch in zip(grouping._split, trial.patches)
    ]


def _signature(per_frame):
    """Group order, member order and ground points, bit for bit (repr
    round-trips a float exactly and tells -0.0 and NaN apart)."""
    return [
        [
            ([id(det) for det in group.detections], repr(group.ground_point))
            for group in groups
        ]
        for groups in per_frame
    ]


def _assert_trial_exact(matcher, assessment, grouping, trial, assignment):
    expected = _from_scratch(matcher, assessment, assignment)
    assert _signature(frame_groups(grouping, trial)) == _signature(expected)
    reference = estimate_global_accuracy(expected)
    assert repr(trial.accuracy) == repr(reference)


@pytest.fixture(params=[0, 2, selection.WHOLE_REGROUP_CAMERAS])
def whole_frame_limit(request, monkeypatch):
    """Split every frame into components (0), regroup whole up to two
    cameras and split past them (2), or the default."""
    monkeypatch.setattr(selection, "WHOLE_REGROUP_CAMERAS", request.param)
    return request.param


class TestIncrementalRegrouping:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=FIXTURE_OK,
        phases=NO_SHRINK,
    )
    @given(case=assessments(), steps=edits, use_color=st.booleans())
    def test_every_prefix_and_trial_equals_group(
        self, whole_frame_limit, case, steps, use_color
    ):
        radius, assessment = case
        order, trials = steps
        matcher = _matcher(radius, use_color)
        grouping = AssignmentGrouping(matcher, assessment)
        assignment: dict[str, str] = {}
        with np.errstate(all="ignore"):
            # Greedy growth: every prefix of the ranking.
            for camera in order:
                assignment[camera] = "A"
                trial = grouping.trial(camera, "A")
                _assert_trial_exact(
                    matcher, assessment, grouping, trial, assignment
                )
                grouping.commit(trial)
            # Downgrade: one camera re-assigned per trial, some kept.
            for camera, algorithm, keep in trials:
                candidate = dict(assignment)
                candidate[camera] = algorithm
                trial = grouping.trial(camera, algorithm)
                _assert_trial_exact(
                    matcher, assessment, grouping, trial, candidate
                )
                if keep:
                    grouping.commit(trial)
                    assignment = candidate
                    assert _signature(frame_groups(grouping)) == _signature(
                        _from_scratch(matcher, assessment, assignment)
                    )

    def test_regrouped_centroid_reaching_a_clean_component(
        self, whole_frame_limit
    ):
        """``k2`` pulls ``k``'s centroid a cell away before ``z`` is
        grouped, so ``z``'s group is never linked to ``k``'s.  Dropping
        ``k2`` leaves the centroid within the radius of ``z``: the
        re-fed group's cells reach ``z``'s clean component, which must
        be regrouped with it."""
        k = point_detection("c1", 0.15, 0.5, score=0.9)
        k2 = point_detection("c2", -0.7, 0.5, score=0.8)
        z = point_detection("c3", 1.0, 0.5, score=0.7)
        frame = {
            "c1": {"A": [k]},
            "c2": {"A": [k2], "B": []},
            "c3": {"A": [z]},
        }
        assessment = AssessmentData(frames=[frame])
        matcher = _matcher(0.9, False)
        grouping = AssignmentGrouping(matcher, assessment)
        for camera in ("c1", "c2", "c3"):
            grouping.commit(grouping.trial(camera, "A"))
        assert [len(g) for g in frame_groups(grouping)[0]] == [2, 1]
        trial = grouping.trial("c2", "B")
        assignment = {"c1": "A", "c2": "B", "c3": "A"}
        _assert_trial_exact(matcher, assessment, grouping, trial, assignment)
        assert [
            [id(d) for d in g.detections]
            for g in frame_groups(grouping, trial)[0]
        ] == [[id(k), id(z)]]

    def test_stale_trial_is_refused(self):
        detections = [point_detection("c1", 0.0, 0.0, score=0.9)]
        assessment = AssessmentData(frames=[{"c1": {"A": detections}}])
        grouping = AssignmentGrouping(_matcher(0.9, False), assessment)
        first = grouping.trial("c1", "A")
        second = grouping.trial("c1", "A")
        grouping.commit(first)
        with pytest.raises(ValueError, match="older state"):
            grouping.commit(second)


def _reference_greedy(engine, assessment, plans, desired):
    """Greedy selection as the paper states it: regroup the whole
    prefix at every step."""
    chosen = []
    for plan in plans:
        chosen.append(plan)
        achieved = estimate_global_accuracy(
            _from_scratch(
                engine.matcher,
                assessment,
                {p.camera_id: p.best_algorithm for p in chosen},
            )
        )
        if achieved.meets(desired):
            break
    return [p.camera_id for p in chosen], achieved


class _Plan:
    def __init__(self, camera_id: str) -> None:
        self.camera_id = camera_id
        self.best_algorithm = "A"


class TestSelectionEngineEquivalence:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=FIXTURE_OK,
        phases=NO_SHRINK,
    )
    @given(
        case=assessments(),
        order=st.permutations(CAMERAS),
        gamma=st.floats(0.3, 1.0),
    )
    def test_greedy_equals_regrouping_every_prefix(
        self, whole_frame_limit, case, order, gamma
    ):
        radius, assessment = case
        engine = SelectionEngine(_matcher(radius, True))
        plans = [_Plan(camera) for camera in order]
        with np.errstate(all="ignore"):
            full = estimate_global_accuracy(
                _from_scratch(
                    engine.matcher, assessment, {c: "A" for c in order}
                )
            )
            desired = DesiredAccuracy(
                gamma * full.num_objects, gamma * full.mean_probability
            )
            chosen, achieved = engine.greedy_subset(assessment, plans, desired)
            expected_ids, expected = _reference_greedy(
                engine, assessment, plans, desired
            )
        assert [p.camera_id for p in chosen] == expected_ids
        assert repr(achieved) == repr(expected)
