"""Flat greedy selection regroups in linear, not quadratic, work.

Each greedy step adds one camera.  Regrouping the whole chosen set at
every step feeds the grouping step ``sum_k |prefix k|`` detections —
quadratic in the cameras chosen.  Incremental regrouping re-feeds only
the components the new camera's detections reach, so on a tiled fleet
(tiles 50 m apart, gating radius 0.9 m) each detection is fed a small
constant number of times.  The guard counts, it does not time: every
detection the grouping step takes either seeds an ``ObjectGroup`` or
joins one.
"""

from __future__ import annotations

from repro.core.selection import SelectionEngine
from repro.engine import DeploymentEngine, fleet_context
from repro.reid.fusion import ObjectGroup

#: Detections fed per chosen detection.  Measured 3.1 on this fleet
#: (142 cameras chosen, 594 detections); regrouping every prefix from
#: scratch feeds 77x.
MAX_FEEDS_PER_DETECTION = 8


def test_flat_greedy_feeds_linear_in_chosen_detections(monkeypatch):
    context = fleet_context(200)
    fed = {"count": 0, "counting": False}
    observed: list[tuple[object, list]] = []

    init = ObjectGroup.__init__
    add = ObjectGroup.add

    def counting_init(self, *args, **kwargs):
        if fed["counting"]:
            fed["count"] += 1
        init(self, *args, **kwargs)

    def counting_add(self, detection):
        if fed["counting"]:
            fed["count"] += 1
        add(self, detection)

    greedy = SelectionEngine.greedy_subset

    def counted_greedy(self, assessment, ranked_plans, desired):
        fed["counting"] = True
        try:
            chosen, achieved = greedy(self, assessment, ranked_plans, desired)
        finally:
            fed["counting"] = False
        observed.append((assessment, chosen))
        return chosen, achieved

    monkeypatch.setattr(ObjectGroup, "__init__", counting_init)
    monkeypatch.setattr(ObjectGroup, "add", counting_add)
    monkeypatch.setattr(SelectionEngine, "greedy_subset", counted_greedy)
    engine = DeploymentEngine(context, seed=2017)
    engine.run("subset", budget=2.0, start=1000, end=1025)

    (assessment, chosen), = observed
    chosen_detections = sum(
        len(assessment.detections(index, plan.camera_id, plan.best_algorithm))
        for index in range(assessment.num_frames)
        for plan in chosen
    )
    assert len(chosen) > 50
    assert chosen_detections > 0
    ratio = fed["count"] / chosen_detections
    assert ratio <= MAX_FEEDS_PER_DETECTION, (
        f"greedy fed {fed['count']} detections for {len(chosen)} cameras "
        f"holding {chosen_detections} ({ratio:.1f}x)"
    )
