"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.detection.base import BoundingBox
from repro.detection.metrics import f_score
from repro.domain_adaptation.gfk import geodesic_flow_kernel
from repro.energy.battery import Battery, frame_budget
from repro.geometry.homography import Homography, apply_homography
from tests.subspaces import orthonormalize
from tests.test_reid import fuse_probabilities

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
unit_floats = st.floats(min_value=0.0, max_value=1.0)
positive_floats = st.floats(min_value=1e-3, max_value=1e6)


class TestFusionProperties:
    @given(st.lists(unit_floats, min_size=1, max_size=8))
    def test_fused_probability_in_unit_interval(self, probs):
        fused = fuse_probabilities(probs)
        assert 0.0 <= fused <= 1.0 + 1e-12

    @given(st.lists(unit_floats, min_size=1, max_size=8))
    def test_fusion_at_least_max_member(self, probs):
        """Eq. 6 never decreases confidence below the best camera."""
        assert fuse_probabilities(probs) >= max(probs) - 1e-12

    @given(st.lists(unit_floats, min_size=1, max_size=6), unit_floats)
    def test_fusion_monotone_in_added_camera(self, probs, extra):
        assert (
            fuse_probabilities(probs + [extra])
            >= fuse_probabilities(probs) - 1e-12
        )

    @given(st.lists(unit_floats, min_size=2, max_size=6))
    def test_fusion_permutation_invariant(self, probs):
        assert fuse_probabilities(probs) == pytest.approx(
            fuse_probabilities(list(reversed(probs)))
        )


class TestFScoreProperties:
    @given(unit_floats, unit_floats)
    def test_bounded_by_min_and_max(self, recall, precision):
        f = f_score(recall, precision)
        assert 0.0 <= f <= 1.0
        assert f <= max(recall, precision) + 1e-12
        if recall > 0 and precision > 0:
            assert f >= min(recall, precision) - 1e-12

    @given(unit_floats)
    def test_equal_inputs_fixed_point(self, value):
        assert f_score(value, value) == pytest.approx(value)

    @given(unit_floats, unit_floats)
    def test_symmetric(self, a, b):
        assert f_score(a, b) == pytest.approx(f_score(b, a))


class TestBoundingBoxProperties:
    boxes = st.tuples(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.1, max_value=50),
    )

    @given(boxes, boxes)
    def test_iou_symmetric_and_bounded(self, a, b):
        box_a, box_b = BoundingBox(*a), BoundingBox(*b)
        iou = box_a.iou(box_b)
        assert 0.0 <= iou <= 1.0 + 1e-12
        assert iou == pytest.approx(box_b.iou(box_a))

    @given(boxes)
    def test_self_iou_is_one(self, a):
        box = BoundingBox(*a)
        assert box.iou(box) == pytest.approx(1.0)


class TestHomographyProperties:
    @given(
        hnp.arrays(
            np.float64,
            (3, 3),
            elements=st.floats(min_value=-0.2, max_value=0.2),
        ),
        hnp.arrays(
            np.float64,
            (6, 2),
            elements=st.floats(min_value=-50, max_value=50),
        ),
    )
    @settings(max_examples=30)
    def test_round_trip(self, perturbation, points):
        matrix = np.eye(3) + perturbation
        if abs(np.linalg.det(matrix)) < 1e-3:
            return  # skip near-singular draws
        h = Homography(matrix)
        mapped = h.apply(points)
        if np.any(~np.isfinite(mapped)):
            return  # points at infinity
        back = h.inverse().apply(mapped)
        np.testing.assert_allclose(back, points, atol=1e-6)

    @given(
        hnp.arrays(
            np.float64,
            (4, 2),
            elements=st.floats(min_value=-10, max_value=10),
        )
    )
    @settings(max_examples=30)
    def test_identity_fixes_points(self, points):
        np.testing.assert_allclose(
            apply_homography(np.eye(3), points), points, atol=1e-12
        )


class TestGfkProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_kernel_psd_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        alpha = int(rng.integers(6, 20))
        beta = int(rng.integers(1, min(5, alpha // 2 + 1)))
        x = orthonormalize(rng.normal(size=(alpha, beta)))
        z = orthonormalize(rng.normal(size=(alpha, beta)))
        w = geodesic_flow_kernel(x, z).matrix()
        np.testing.assert_allclose(w, w.T, atol=1e-9)
        assert np.linalg.eigvalsh(w).min() > -1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_self_distance_zero(self, seed):
        rng = np.random.default_rng(seed)
        x = orthonormalize(rng.normal(size=(12, 3)))
        kernel = geodesic_flow_kernel(x, x)
        t = rng.normal(size=(4, 12))
        from repro.domain_adaptation.similarity import kernel_distance_matrix

        d = kernel_distance_matrix(kernel, t, t)
        assert np.all(np.diag(d) < 1e-8)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_principal_angles_bounded(self, seed):
        rng = np.random.default_rng(seed)
        x = orthonormalize(rng.normal(size=(15, 4)))
        z = orthonormalize(rng.normal(size=(15, 4)))
        angles = geodesic_flow_kernel(x, z).angles
        assert np.all(angles >= -1e-12)
        assert np.all(angles <= np.pi / 2 + 1e-12)


class TestBatteryProperties:
    @given(
        positive_floats,
        st.lists(st.floats(min_value=0, max_value=1e5), max_size=20),
    )
    def test_never_negative_residual(self, capacity, draws):
        battery = Battery(capacity_joules=capacity)
        for amount in draws:
            battery.draw(amount)
        assert battery.residual >= 0.0
        assert battery.consumed <= capacity + 1e-9

    @given(positive_floats, positive_floats, positive_floats)
    def test_frame_budget_scales_linearly(self, residual, op_time, cadence):
        budget = frame_budget(residual, op_time, cadence)
        double = frame_budget(2 * residual, op_time, cadence)
        assert double == pytest.approx(2 * budget, rel=1e-9)

    @given(positive_floats, positive_floats, positive_floats)
    def test_budget_times_frames_equals_residual(
        self, residual, op_time, cadence
    ):
        budget = frame_budget(residual, op_time, cadence)
        frames = op_time / cadence
        assert budget * frames == pytest.approx(residual, rel=1e-9)
