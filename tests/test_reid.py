"""Tests for cross-camera re-identification and fusion."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EECSConfig
from repro.detection.base import BoundingBox, Detection
from repro.geometry.homography import Homography
from repro.reid.fusion import ObjectGroup
from repro.reid.mahalanobis import MahalanobisMetric
from repro.reid.matcher import CrossCameraMatcher


def fuse_probabilities(probabilities):
    """Eq. (6) as a deployment computes it: the fused probability of one
    object group whose members report ``probabilities``."""
    return ObjectGroup(
        detections=[
            Detection(
                bbox=BoundingBox(0, 0, 10, 20),
                score=0.5,
                camera_id=f"c{index}",
                frame_index=0,
                algorithm="HOG",
                probability=p,
            )
            for index, p in enumerate(probabilities)
        ]
    ).fused_probability


class TestFuseProbabilities:
    def test_single_camera_unchanged(self):
        assert fuse_probabilities([0.7]) == pytest.approx(0.7)

    def test_two_cameras_eq6(self):
        """Eq. 6: 1 - (1-p1)(1-p2)."""
        assert fuse_probabilities([0.6, 0.5]) == pytest.approx(0.8)

    def test_monotone_in_members(self):
        assert fuse_probabilities([0.5, 0.5]) > fuse_probabilities([0.5])

    def test_certain_camera_dominates(self):
        assert fuse_probabilities([1.0, 0.1]) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert fuse_probabilities([]) == 0.0

    def test_clamps_out_of_range(self):
        assert fuse_probabilities([1.5]) == 1.0
        assert fuse_probabilities([-0.5, 0.5]) == pytest.approx(0.5)

    def test_commutative(self):
        assert fuse_probabilities([0.3, 0.8, 0.1]) == pytest.approx(
            fuse_probabilities([0.8, 0.1, 0.3])
        )


class TestObjectGroup:
    def _det(self, camera, prob, truth_id=None):
        return Detection(
            bbox=BoundingBox(0, 0, 10, 20),
            score=0.5,
            camera_id=camera,
            frame_index=0,
            algorithm="HOG",
            probability=prob,
            truth_id=truth_id,
        )

    def test_fused_probability(self):
        group = ObjectGroup(
            detections=[self._det("c1", 0.6), self._det("c2", 0.5)]
        )
        assert group.fused_probability == pytest.approx(0.8)

    def test_nan_probability_falls_back_to_score(self):
        group = ObjectGroup(detections=[self._det("c1", float("nan"))])
        assert group.fused_probability == pytest.approx(0.5)

    def test_majority_truth_id(self):
        group = ObjectGroup(detections=[
            self._det("c1", 0.5, truth_id=3),
            self._det("c2", 0.5, truth_id=3),
            self._det("c3", 0.5, truth_id=7),
        ])
        assert group.majority_truth_id == 3
        assert group.is_true_object

    def test_false_positive_group(self):
        group = ObjectGroup(detections=[self._det("c1", 0.5)])
        assert not group.is_true_object
        assert group.majority_truth_id is None


class TestMahalanobis:
    def test_identity_on_whitened_data(self, rng):
        data = rng.normal(size=(500, 4))
        metric = MahalanobisMetric(shrinkage=0.0).fit(data)
        a, b = np.zeros(4), np.ones(4)
        # Whitened data: Mahalanobis ~ Euclidean.
        assert metric.distance(a, b) == pytest.approx(2.0, rel=0.2)

    def test_scales_by_variance(self, rng):
        data = rng.normal(size=(500, 2)) * np.array([10.0, 0.1])
        metric = MahalanobisMetric(shrinkage=0.0).fit(data)
        along_wide = metric.distance([0, 0], [1, 0])
        along_narrow = metric.distance([0, 0], [0, 1])
        assert along_narrow > along_wide

    def test_distance_zero_to_self(self, rng):
        metric = MahalanobisMetric().fit(rng.normal(size=(50, 3)))
        assert metric.distance([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_symmetric(self, rng):
        metric = MahalanobisMetric().fit(rng.normal(size=(50, 3)))
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))

    def test_use_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MahalanobisMetric().distance([0], [1])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            MahalanobisMetric().fit(np.zeros((1, 3)))

    def test_rejects_bad_shrinkage(self):
        with pytest.raises(ValueError):
            MahalanobisMetric(shrinkage=2.0)


def identity_matcher(num_cameras=3, use_color=False, metric=None):
    homographies = {
        f"c{i}": Homography(np.eye(3)) for i in range(1, num_cameras + 1)
    }
    return CrossCameraMatcher(
        homographies,
        ground_radius=5.0,
        color_metric=metric,
        use_color=use_color,
    )


def detection(camera, x, y, score=0.9, truth_id=None, color=None):
    return Detection(
        bbox=BoundingBox(x - 5, y - 20, 10, 20),
        score=score,
        camera_id=camera,
        frame_index=0,
        algorithm="HOG",
        color_feature=color if color is not None else np.full(40, 0.5),
        truth_id=truth_id,
    )


class TestCrossCameraMatcher:
    def test_groups_nearby_detections(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100, truth_id=1),
            detection("c2", 102, 101, truth_id=1),
        ])
        assert len(groups) == 1
        assert len(groups[0]) == 2

    def test_separates_distant_detections(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100),
            detection("c2", 300, 300),
        ])
        assert len(groups) == 2

    def test_same_camera_never_grouped(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100),
            detection("c1", 101, 101),
        ])
        assert len(groups) == 2

    def test_color_gate_rejects_mismatch(self, rng):
        samples = rng.uniform(size=(200, 40))
        metric = MahalanobisMetric(shrinkage=0.3).fit(samples)
        matcher = identity_matcher(use_color=True, metric=metric)
        dark = np.full(40, 0.1)
        light = np.full(40, 0.9)
        groups = matcher.group([
            detection("c1", 100, 100, color=dark),
            detection("c2", 101, 100, color=light),
        ])
        assert len(groups) == 2

    def test_color_gate_accepts_match(self, rng):
        samples = rng.uniform(size=(200, 40))
        metric = MahalanobisMetric(shrinkage=0.3).fit(samples)
        matcher = identity_matcher(use_color=True, metric=metric)
        shade = np.full(40, 0.4)
        groups = matcher.group([
            detection("c1", 100, 100, color=shade),
            detection("c2", 101, 100, color=shade + 0.01),
        ])
        assert len(groups) == 1

    def test_unknown_camera_raises(self):
        matcher = identity_matcher()
        with pytest.raises(KeyError):
            matcher.group([detection("c9", 0, 0)])

    def test_reid_precision_pure_groups(self):
        matcher = identity_matcher()
        groups = matcher.group([
            detection("c1", 100, 100, truth_id=1),
            detection("c2", 101, 100, truth_id=1),
        ])
        assert matcher.reid_precision(groups) == 1.0

    def test_empty_input(self):
        assert identity_matcher().group([]) == []

    def test_rejects_no_homographies(self):
        with pytest.raises(ValueError):
            CrossCameraMatcher({})


class TestEndToEndReid:
    """Re-identification on the real synthetic dataset (paper: >90%
    precision)."""

    def test_dataset_reid_precision(self, dataset1, rng):
        from repro.detection.detectors import make_detector

        detector = make_detector("LSVM", dataset1.environment)
        matcher = CrossCameraMatcher(
            dataset1.ground_homographies(), ground_radius=0.9
        )
        records = dataset1.frames(0, 250, only_ground_truth=True)
        precisions = []
        for record in records:
            detections = []
            for camera_id in dataset1.camera_ids:
                obs = record.observation(camera_id)
                detections.extend(
                    detector.detect(obs, rng, threshold=-1.2)
                )
            groups = matcher.group(detections)
            precisions.append(matcher.reid_precision(groups))
        # Homography-only matching already sits near the paper's >90%
        # bound; the colour-verification ablation benchmark shows the
        # full matcher exceeding it.
        assert np.mean(precisions) >= 0.88


NON_POSITIVE_OR_NON_FINITE = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.9,
]


class TestGroupingParameters:
    """A NaN radius fails every ``dist < radius`` gate and a NaN colour
    threshold passes every colour check, so both would silently change
    grouping; non-finite and non-positive values are refused."""

    @pytest.mark.parametrize("value", NON_POSITIVE_OR_NON_FINITE)
    def test_matcher_rejects_ground_radius(self, value):
        with pytest.raises(ValueError, match="ground_radius"):
            CrossCameraMatcher(
                {"c1": Homography(np.eye(3))}, ground_radius=value
            )

    @pytest.mark.parametrize("value", NON_POSITIVE_OR_NON_FINITE)
    def test_matcher_rejects_color_threshold(self, value):
        with pytest.raises(ValueError, match="color_threshold"):
            CrossCameraMatcher(
                {"c1": Homography(np.eye(3))}, color_threshold=value
            )

    @pytest.mark.parametrize("name", ["ground_radius_m", "color_threshold"])
    @pytest.mark.parametrize("value", NON_POSITIVE_OR_NON_FINITE)
    def test_config_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            EECSConfig(**{name: value})


def point_detection(camera, x, y, score, color=None):
    """A zero-size box, so its bottom-centre is exactly ``(x, y)``."""
    return Detection(
        bbox=BoundingBox(x, y, 0.0, 0.0),
        score=score,
        camera_id=camera,
        frame_index=0,
        algorithm="HOG",
        color_feature=color if color is not None else np.full(40, 0.5),
    )


def assert_matches_reference(matcher, detections):
    fast = matcher.group(detections)
    reference = matcher.group_reference(detections)
    assert [[id(d) for d in g.detections] for g in fast] == [
        [id(d) for d in g.detections] for g in reference
    ]
    for gf, gr in zip(fast, reference):
        for a, b in zip(gf.ground_point, gr.ground_point):
            if math.isfinite(b):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
            else:
                assert a == b or (math.isnan(a) and math.isnan(b))
    return fast


def _fitted_metric():
    samples = np.random.default_rng(7).uniform(size=(200, 40))
    return MahalanobisMetric(shrinkage=0.3).fit(samples)


COLORS = [np.full(40, 0.1), np.full(40, 0.4), np.full(40, 0.41)]


class TestGroundGrid:
    def test_centroid_drifting_across_cell_edge_stays_findable(self):
        """The second member pulls the centroid into the next cell; the
        third detection is within the radius of the moved centroid only,
        two cells away from where the group started."""
        matcher = CrossCameraMatcher(
            {f"c{i}": Homography(np.eye(3)) for i in range(1, 4)},
            ground_radius=0.9,
            use_color=False,
        )
        detections = [
            point_detection("c1", 0.95, 0.0, score=0.9),
            point_detection("c2", 1.5, 0.0, score=0.8),
            point_detection("c3", 2.05, 0.0, score=0.7),
        ]
        groups = assert_matches_reference(matcher, detections)
        assert [len(g) for g in groups] == [3]

    def test_point_at_infinity_starts_its_own_group(self):
        """``c1`` maps image row 128 onto the horizon line (w = 0), so
        one detection projects to infinity and another to NaN.  Each
        starts its own group that nothing can join, as in the
        reference, and neither projection warns."""
        horizon = Homography(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1 / 128, 1.0]])
        )
        matcher = CrossCameraMatcher(
            {
                "c1": horizon,
                "c2": Homography(np.eye(3)),
                "c3": Homography(np.eye(3)),
            },
            ground_radius=0.9,
            use_color=False,
        )
        detections = [
            point_detection("c1", 3.0, 128.0, score=0.9),
            point_detection("c1", 0.0, 128.0, score=0.85),
            point_detection("c2", 1e300, 1e300, score=0.8),
            point_detection("c2", 0.0, 0.0, score=0.7),
            point_detection("c1", 0.5, 0.0, score=0.6),
            point_detection("c3", 0.2, 0.1, score=0.5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            matcher.group(detections)
        # Only the reference's norm of the 1e300 offset may overflow.
        with np.errstate(over="ignore"):
            groups = assert_matches_reference(matcher, detections)
        assert [len(g) for g in groups] == [1, 1, 1, 3]
        assert groups[0].ground_point == (math.inf, math.inf)
        assert math.isnan(groups[1].ground_point[0])

    def test_coordinates_whose_cell_index_overflows_still_group(self):
        """With a radius under 0.5 the cell side is below 1, so ``x /
        side`` can overflow for a finite ``x``; such points still meet."""
        matcher = CrossCameraMatcher(
            {f"c{i}": Homography(np.eye(3)) for i in range(1, 4)},
            ground_radius=0.25,
            use_color=False,
        )
        detections = [
            point_detection("c1", 1.7e308, -1.7e308, score=0.9),
            point_detection("c2", 1.7e308, -1.7e308, score=0.8),
            point_detection("c3", 1.7e308, 5.0, score=0.7),
            point_detection("c3", 5.0, 5.0, score=0.6),
        ]
        with np.errstate(all="ignore"):
            groups = assert_matches_reference(matcher, detections)
        assert [len(g) for g in groups] == [2, 1, 1]


@st.composite
def grid_frames(draw):
    """Detections on a lattice of half the radius, nudged by a few
    ulps: near cell edges, exactly a radius apart, in negative and
    tile-scale coordinates, with centroids that drift as members
    join."""
    radius = draw(st.sampled_from([0.9, 0.5, 1.0, 2.5]))
    origin = [
        draw(
            st.sampled_from([0.0, -1600.0, 1600.0])
            | st.floats(-1600.0, 1600.0)
        )
        for _ in range(2)
    ]
    detections = []
    for i in range(draw(st.integers(1, 14))):
        coords = []
        for axis in range(2):
            value = origin[axis] + draw(st.integers(-4, 4)) * radius / 2
            for _ in range(draw(st.integers(0, 3))):
                value = math.nextafter(
                    value, draw(st.sampled_from([-math.inf, math.inf]))
                )
            coords.append(value)
        detections.append(
            point_detection(
                draw(st.sampled_from(["c1", "c2", "c3", "c4"])),
                coords[0],
                coords[1],
                score=draw(st.floats(0.05, 1.0)),
                color=COLORS[draw(st.integers(0, len(COLORS) - 1))],
            )
        )
    return radius, detections


class TestGroundGridProperties:
    @settings(max_examples=40, deadline=None)
    @given(frame=grid_frames(), use_color=st.booleans())
    def test_group_matches_reference(self, frame, use_color):
        radius, detections = frame
        matcher = CrossCameraMatcher(
            {f"c{i}": Homography(np.eye(3)) for i in range(1, 5)},
            ground_radius=radius,
            color_metric=_fitted_metric(),
            use_color=use_color,
        )
        assert_matches_reference(matcher, detections)


class TestGroupingMemoLifetime:
    """Grouping memos die with the detections they describe: the
    process-lived matcher of a shared context keeps nothing of a run."""

    def test_deployment_leaves_no_detection_alive(self, monkeypatch):
        from repro.engine import DeploymentEngine
        from repro.engine.context import shared_context

        context = shared_context(1)
        matcher = context.matcher
        before = dict(vars(matcher))
        seen: list[weakref.ref] = []
        group = CrossCameraMatcher.group

        def recording_group(self, detections, *args, **kwargs):
            seen.extend(weakref.ref(d) for d in detections[:2])
            return group(self, detections, *args, **kwargs)

        monkeypatch.setattr(CrossCameraMatcher, "group", recording_group)
        for _ in range(2):
            engine = DeploymentEngine(context, seed=2017)
            engine.run("full", budget=2.0, start=1000, end=1600)
            del engine
            gc.collect()
            assert seen
            alive = sum(ref() is not None for ref in seen)
            assert alive == 0, f"{alive} of {len(seen)} detections alive"
            assert vars(matcher).keys() == before.keys()
            assert all(
                value is before[name] for name, value in vars(matcher).items()
            )
