"""Property-based invariants of the deployment engine.

Whatever the policy/budget/window combination, a run must satisfy
the structural invariants of the paper's evaluation protocol:
detection counts bounded by ground truth, energy split consistent,
and the real-time latency accounting
(:meth:`RunResult.max_latency_per_frame`) exactly the mean of the
accumulated per-camera processing time.  Hypothesis drives arbitrary
combinations through one shared trained engine; runs reseed from
their configuration, so example order cannot matter.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import DeploymentEngine
from repro.engine.policy import available_policies

#: Short windows keep each drawn run cheap (2-8 ground-truth frames).
WINDOW_ENDS = (1050, 1100, 1200)

policies = st.sampled_from(available_policies())
budgets = st.sampled_from((None, 0.5, 2.0))
window_ends = st.sampled_from(WINDOW_ENDS)


def make_assignment(engine, draw_bits: int) -> dict[str, str]:
    """A deterministic camera->algorithm map from two drawn bits."""
    cameras = engine.dataset.camera_ids
    count = 2 + (draw_bits & 1)
    algorithm = "HOG" if draw_bits & 2 else "ACF"
    return {camera_id: algorithm for camera_id in cameras[:count]}


@given(
    policy=policies,
    budget=budgets,
    end=window_ends,
    draw_bits=st.integers(min_value=0, max_value=3),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_run_invariants(runner1, policy, budget, end, draw_bits):
    assignment = (
        make_assignment(runner1, draw_bits) if policy == "fixed" else None
    )
    # The fixed policy ignores the budget; a None budget derives it
    # from the battery exactly as the paper does.
    result = runner1.run(
        policy,
        budget=budget,
        assignment=assignment,
        start=1000,
        end=end,
    )

    # Detection counts are bounded by ground truth.
    assert 0 <= result.humans_detected <= result.humans_present
    assert 0.0 <= result.detection_rate <= 1.0

    # The frame window is fully evaluated: one record per annotated
    # frame in [start, end).
    expected_frames = len(
        runner1.dataset.frames(1000, end, only_ground_truth=True)
    )
    assert result.frames_evaluated == expected_frames

    # Energy splits exactly into its two categories and is attributed
    # camera by camera.
    assert result.energy_joules >= 0.0
    assert result.energy_joules == sum(result.energy_by_camera.values())
    split = result.processing_joules + result.communication_joules
    assert abs(result.energy_joules - split) < 1e-9 * max(1.0, split)

    # Latency accounting: max_latency_per_frame is exactly the mean
    # accumulated processing time per evaluated frame, and with at
    # least one camera active it is strictly positive.
    assert result.max_latency_per_frame() == (
        result.processing_seconds / result.frames_evaluated
    )
    assert result.max_latency_per_frame() > 0.0

    # Probabilities are probabilities.
    assert 0.0 <= result.mean_fused_probability <= 1.0

    # Assessing policies record one decision per re-calibration round;
    # static policies record none.
    if policy in ("subset", "full", "cell", "cell_full", "predictive"):
        assert result.decisions
    else:
        assert result.decisions == []


@given(policy=policies, end=st.sampled_from((1100, 1200)))
@settings(max_examples=6, deadline=None)
def test_shared_and_fresh_engines_agree(runner1, policy, end):
    """A run on the shared engine, after any number of earlier runs,
    equals the same run on a fresh engine, field for field."""
    assignment = (
        make_assignment(runner1, 1) if policy == "fixed" else None
    )
    kwargs = dict(budget=2.0, assignment=assignment, start=1000, end=end)
    shared = runner1.run(policy, **kwargs)
    fresh = DeploymentEngine(runner1.context, seed=runner1.seed).run(
        policy, **kwargs
    )
    assert vars(shared) == vars(fresh)
