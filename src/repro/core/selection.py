"""Camera-subset selection and algorithm downgrade (Sections IV-B.3/4).

During an accuracy assessment period every camera runs all affordable
algorithms and uploads the detection metadata; the controller can then
*compute* — not guess — the global accuracy of any candidate
(camera subset, algorithm assignment) by fusing the stored metadata.
The greedy selection activates cameras in decreasing individual
accuracy until the desired accuracy is met; the downgrade pass then
walks the selected cameras in reverse order, substituting cheaper
algorithms while the requirement still holds.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.accuracy import (
    DesiredAccuracy,
    GlobalAccuracy,
    accuracy_from_probabilities,
    estimate_global_accuracy,
)
from repro.core.calibration import TrainingItem
from repro.core.ranking import efficiency_candidates
from repro.detection.base import Detection
from repro.reid.fusion import ObjectGroup
from repro.reid.incremental import FramePatch, FrameRegrouping
from repro.reid.matcher import CrossCameraMatcher, GroupingMemo

if TYPE_CHECKING:
    from repro.telemetry.trace import Tracer

_NO_SPAN = nullcontext()


class AccuracyMemo:
    """Fused accuracies of one assessment, keyed by assignment.

    The key is the *set* of (camera, algorithm) pairs, so assignments
    that list the same pairs in another order share the first value
    stored.  It holds what callers ask
    :meth:`SelectionEngine.global_accuracy` for and the outcome of each
    greedy and accepted downgrade step — not every greedy prefix, so it
    stays O(cameras) per selection.  A lookup builds its key only when
    an entry of the same size exists.
    """

    __slots__ = ("_entries", "_sizes")

    def __init__(self) -> None:
        self._entries: dict[frozenset, GlobalAccuracy] = {}
        self._sizes: set[int] = set()

    def holds_size(self, size: int) -> bool:
        """Whether some stored assignment has ``size`` cameras."""
        return size in self._sizes

    def get(self, assignment: dict[str, str]) -> GlobalAccuracy | None:
        if len(assignment) not in self._sizes:
            return None
        return self._entries.get(frozenset(assignment.items()))

    def put(
        self, assignment: dict[str, str], accuracy: GlobalAccuracy
    ) -> GlobalAccuracy:
        """Store ``accuracy`` unless the assignment has a value; returns
        the stored value."""
        self._sizes.add(len(assignment))
        return self._entries.setdefault(
            frozenset(assignment.items()), accuracy
        )


@dataclass
class AssessmentData:
    """Detection metadata collected during one assessment period.

    ``frames[i][camera_id][algorithm]`` holds camera ``camera_id``'s
    thresholded, probability-calibrated detections on assessment frame
    ``i`` when running ``algorithm``.
    """

    frames: list[dict[str, dict[str, list[Detection]]]] = field(
        default_factory=list
    )
    #: Memo of fused accuracies keyed by assignment (see
    #: :meth:`SelectionEngine.global_accuracy`).  Selection evaluates
    #: the same assignment more than once (the baseline is also the
    #: full greedy prefix; the final assignment is re-read after
    #: downgrade); the memo ties the cache's lifetime to the assessment
    #: whose metadata it summarises.
    accuracy_cache: AccuracyMemo = field(
        default_factory=AccuracyMemo, repr=False, compare=False
    )
    #: Ground points and colour distances of the detections in
    #: ``frames``, reused as selection regroups them under each
    #: candidate assignment.  Keyed by ``id()``, so it lives exactly as
    #: long as the frames that keep those detections alive.
    grouping_memo: GroupingMemo = field(
        default_factory=GroupingMemo, repr=False, compare=False
    )
    #: The grouping greedy selection ended with, which downgrade edits
    #: further instead of rebuilding it.
    regrouping: "AssignmentGrouping | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def camera_ids(self) -> list[str]:
        cameras: list[str] = []
        for frame in self.frames:
            for camera_id in frame:
                if camera_id not in cameras:
                    cameras.append(camera_id)
        return cameras

    def algorithms_for(self, camera_id: str) -> list[str]:
        algorithms: list[str] = []
        for frame in self.frames:
            for algorithm in frame.get(camera_id, {}):
                if algorithm not in algorithms:
                    algorithms.append(algorithm)
        return algorithms

    def detections(
        self, frame_idx: int, camera_id: str, algorithm: str
    ) -> list[Detection]:
        return self.frames[frame_idx].get(camera_id, {}).get(algorithm, [])


#: Assignments of at most this many cameras are regrouped from scratch
#: on every trial; larger ones are kept split into components (see
#: :class:`AssignmentGrouping`).
WHOLE_REGROUP_CAMERAS = 16


class GroupingTrial:
    """One camera's (re)assignment, evaluated but not yet committed."""

    __slots__ = ("camera_id", "algorithm", "accuracy", "patches", "version")

    def __init__(
        self,
        camera_id: str,
        algorithm: str,
        accuracy: GlobalAccuracy,
        patches: list[FramePatch | None] | None,
        version: int,
    ) -> None:
        self.camera_id = camera_id
        self.algorithm = algorithm
        self.accuracy = accuracy
        #: Per split frame, the edit (None where the camera has no
        #: detections under either algorithm); None for a trial
        #: regrouped whole, whose groups are not kept.
        self.patches = patches
        self.version = version


class AssignmentGrouping:
    """Every assessment frame grouped under one camera->algorithm
    assignment, edited one camera at a time.

    Greedy selection grows the assignment a camera per step and
    downgrade swaps one camera's algorithm per trial.  Up to
    :data:`WHOLE_REGROUP_CAMERAS` cameras a trial regroups every frame
    from scratch and keeps only the accuracy, as
    :meth:`SelectionEngine.global_accuracy` does: in so few cameras'
    views an edit reaches most of the frame, and component bookkeeping
    costs more than the regrouping it saves.  Past the limit each frame
    is kept split into components
    (:class:`~repro.reid.incremental.FrameRegrouping`, built in one
    feed) and a trial regroups only what the camera's detections can
    reach.  Either way the result equals grouping the whole assignment
    from scratch, bit for bit.

    A new camera goes last and a re-assigned one keeps its place, as in
    a dict, so a camera's position in the assignment is its position in
    ``group``'s input, which orders tied scores.  That needs scores
    with a total order (no NaN, which no detector emits) and each
    detection listed under its own ``camera_id``.
    """

    def __init__(
        self, matcher: CrossCameraMatcher, assessment: AssessmentData
    ) -> None:
        self.matcher = matcher
        # The assessment's frames and memo, not the assessment: it
        # keeps this grouping, and a reference cycle would hold every
        # detection until the cyclic collector runs.
        self._frames = assessment.frames
        self._memo = assessment.grouping_memo
        self.assignment: dict[str, str] = {}
        self._positions: dict[str, int] = {}
        #: The split frames, once past the limit.
        self._split: list[FrameRegrouping] | None = None
        self._version = 0

    def _regroup(self, assignment: dict[str, str]) -> list[list[ObjectGroup]]:
        """Every frame grouped from scratch under ``assignment``."""
        return [
            self.matcher.group(
                [
                    det
                    for camera_id, algorithm in assignment.items()
                    for det in frame.get(camera_id, {}).get(algorithm, ())
                ],
                self._memo,
            )
            for frame in self._frames
        ]

    def extend(self, pairs) -> None:
        """Assign ``(camera, algorithm)`` pairs in turn, editing split
        frames; before the frames are split there is nothing to edit."""
        for camera_id, algorithm in pairs:
            if self._split is not None:
                self.commit(self.trial(camera_id, algorithm))
                continue
            self._positions.setdefault(camera_id, len(self._positions))
            self.assignment[camera_id] = algorithm
            self._version += 1

    def trial(self, camera_id: str, algorithm: str) -> GroupingTrial:
        """Evaluate assigning ``algorithm`` to ``camera_id``."""
        position = self._positions.get(camera_id, len(self._positions))
        if self._split is None:
            size = max(len(self._positions), position + 1)
            if size <= WHOLE_REGROUP_CAMERAS:
                assignment = dict(self.assignment)
                assignment[camera_id] = algorithm
                return GroupingTrial(
                    camera_id,
                    algorithm,
                    estimate_global_accuracy(self._regroup(assignment)),
                    None,
                    self._version,
                )
            self._split = [
                FrameRegrouping(
                    self.matcher,
                    self._memo,
                    self._positions,
                    {
                        self._positions[camera]: detections
                        for camera, assigned in self.assignment.items()
                        if (detections := frame.get(camera, {}).get(assigned))
                    },
                )
                for frame in self._frames
            ]
        previous = self.assignment.get(camera_id)
        patches = []
        for frame, regrouping in zip(self._frames, self._split):
            algorithms = frame.get(camera_id, {})
            added = algorithms.get(algorithm, [])
            patches.append(
                regrouping.edit(position, added)
                if added or (previous is not None and algorithms.get(previous))
                else None
            )
        probabilities = np.concatenate(
            [
                regrouping.probabilities
                if patch is None
                else patch.probabilities
                for regrouping, patch in zip(self._split, patches)
            ]
        )
        return GroupingTrial(
            camera_id,
            algorithm,
            accuracy_from_probabilities(probabilities),
            patches,
            self._version,
        )

    def commit(self, trial: GroupingTrial) -> None:
        """Make ``trial`` the current assignment; a trial of an earlier
        state is refused."""
        if trial.version != self._version:
            raise ValueError("trial was evaluated against an older state")
        if trial.patches is None:
            # Regrouped whole: split frames, if a later trial built
            # them, no longer hold the assignment.
            self._split = None
        else:
            for regrouping, patch in zip(self._split, trial.patches):
                if patch is not None:
                    regrouping.commit(patch)
        self._positions.setdefault(trial.camera_id, len(self._positions))
        self.assignment[trial.camera_id] = trial.algorithm
        self._version += 1

    def frame_groups(
        self, trial: GroupingTrial | None = None
    ) -> list[list[ObjectGroup]]:
        """Each frame's groups, in the order ``group`` returns them —
        now, or once ``trial`` (of the current state) is committed."""
        if trial is not None and trial.patches is None:
            assignment = dict(self.assignment)
            assignment[trial.camera_id] = trial.algorithm
            return self._regroup(assignment)
        if self._split is None:
            return self._regroup(self.assignment)
        if trial is None:
            return [regrouping.groups for regrouping in self._split]
        return [
            regrouping.groups
            if patch is None
            else regrouping.groups_after(patch)
            for regrouping, patch in zip(self._split, trial.patches)
        ]


@dataclass
class CameraPlan:
    """Everything the selector needs to know about one camera.

    Attributes:
        camera_id: The camera.
        item: Its matched training item (profiles + thresholds).
        best_algorithm: The most accurate affordable algorithm ``A*``.
        budget: Per-frame energy budget ``B_j``.
        communication_cost: Per-frame communication cost ``C_j``.
    """

    camera_id: str
    item: TrainingItem
    best_algorithm: str
    budget: float
    communication_cost: float = 0.0


def _best_assignment(plans: list[CameraPlan]) -> dict[str, str]:
    return {plan.camera_id: plan.best_algorithm for plan in plans}


class SelectionEngine:
    """Evaluates candidate selections against assessment metadata."""

    def __init__(
        self, matcher: CrossCameraMatcher, tracer: "Tracer | None" = None
    ) -> None:
        self.matcher = matcher
        #: Spans for greedy, downgrade and evaluation; None = untraced.
        self.tracer = tracer

    def _span(self, name: str):
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.span(name)

    # ------------------------------------------------------------------
    # Accuracy evaluation
    # ------------------------------------------------------------------
    def global_accuracy(
        self,
        assessment: AssessmentData,
        assignment: dict[str, str],
    ) -> GlobalAccuracy:
        """Fused ``(N, P-bar)`` for a camera->algorithm assignment.

        Results are memoised per assignment on the assessment itself:
        the metadata is immutable once collected, so the fused accuracy
        of an assignment never changes within one assessment period.
        """
        memo = assessment.accuracy_cache
        cached = memo.get(assignment)
        if cached is not None:
            return cached
        with self._span("selection.global_accuracy"):
            frame_groups = []
            for frame_idx in range(assessment.num_frames):
                detections: list[Detection] = []
                for camera_id, algorithm in assignment.items():
                    detections.extend(
                        assessment.detections(frame_idx, camera_id, algorithm)
                    )
                frame_groups.append(
                    self.matcher.group(detections, assessment.grouping_memo)
                )
            return memo.put(assignment, estimate_global_accuracy(frame_groups))

    def individual_accuracy(
        self,
        assessment: AssessmentData,
        camera_id: str,
        algorithm: str,
    ) -> float:
        """A camera's standalone accuracy proxy: the expected number of
        true detections per frame (sum of detection probabilities)."""
        if assessment.num_frames == 0:
            return 0.0
        total = 0.0
        for frame_idx in range(assessment.num_frames):
            for det in assessment.detections(frame_idx, camera_id, algorithm):
                p = det.probability
                if np.isnan(p):
                    p = float(np.clip(det.score, 0.0, 1.0))
                total += p
        return total / assessment.num_frames

    def rank_cameras(
        self,
        assessment: AssessmentData,
        plans: list[CameraPlan],
    ) -> list[CameraPlan]:
        """Order cameras by decreasing individual accuracy, the list
        ``S_o`` of Section IV-B.3."""
        return sorted(
            plans,
            key=lambda plan: -self.individual_accuracy(
                assessment, plan.camera_id, plan.best_algorithm
            ),
        )

    # ------------------------------------------------------------------
    # Greedy camera subset (Section IV-B.3)
    # ------------------------------------------------------------------
    def greedy_subset(
        self,
        assessment: AssessmentData,
        ranked_plans: list[CameraPlan],
        desired: DesiredAccuracy,
    ) -> tuple[list[CameraPlan], GlobalAccuracy]:
        """Activate cameras in rank order until ``desired`` is met.

        Returns the chosen plans and the accuracy they achieve; if
        even the full set misses the requirement, all cameras are
        returned (the best EECS can do).  Past a few cameras each step
        regroups only what the new camera's detections can reach (see
        :class:`AssignmentGrouping`); the grouping of the chosen set is
        left on the assessment for :meth:`downgrade` to edit.
        """
        if not ranked_plans:
            raise ValueError("no cameras to select from")
        memo = assessment.accuracy_cache
        with self._span("selection.greedy"):
            grouping = AssignmentGrouping(self.matcher, assessment)
            chosen: list[CameraPlan] = []
            # Steps the memo answered, not yet applied to ``grouping``.
            pending: list[CameraPlan] = []
            for plan in ranked_plans:
                chosen.append(plan)
                achieved = None
                if memo.holds_size(len(chosen)):
                    achieved = memo.get(_best_assignment(chosen))
                if achieved is not None:
                    pending.append(plan)
                else:
                    grouping.extend(
                        (step.camera_id, step.best_algorithm)
                        for step in pending
                    )
                    pending = []
                    trial = grouping.trial(plan.camera_id, plan.best_algorithm)
                    grouping.commit(trial)
                    achieved = trial.accuracy
                if achieved.meets(desired):
                    break
            memo.put(_best_assignment(chosen), achieved)
            assessment.regrouping = grouping
        return chosen, achieved

    # ------------------------------------------------------------------
    # Algorithm downgrade (Section IV-B.4)
    # ------------------------------------------------------------------
    def downgrade(
        self,
        assessment: AssessmentData,
        chosen: list[CameraPlan],
        desired: DesiredAccuracy,
    ) -> dict[str, str]:
        """Substitute cheaper algorithms while accuracy holds.

        Walks the chosen cameras in reverse accuracy order.  For each,
        tries the efficiency-filtered cheaper alternatives (highest
        ``f_score/energy`` first, per the paper's pruning rule); the
        first substitution that keeps the desired global accuracy is
        locked in.  The pass stops at the first camera where no
        alternative works, as specified in Section IV-B.4.
        """
        with self._span("selection.downgrade"):
            memo = assessment.accuracy_cache
            assignment = _best_assignment(chosen)
            # Trials need every chosen camera grouped but the last: the
            # walk starts there, and a trial that adds it is a trial
            # that re-assigns it.  Greedy's grouping usually has them.
            pairs = list(assignment.items())
            grouping = assessment.regrouping
            if grouping is None or list(grouping.assignment.items()) != (
                pairs[: len(grouping.assignment)]
            ):
                grouping = AssignmentGrouping(self.matcher, assessment)
            grouping.extend(pairs[len(grouping.assignment) : -1])
            for plan in reversed(chosen):
                current = plan.item.profile(assignment[plan.camera_id])
                available = set(assessment.algorithms_for(plan.camera_id))
                candidates = [
                    c
                    for c in efficiency_candidates(
                        plan.item,
                        current,
                        plan.budget,
                        plan.communication_cost,
                    )
                    # Only algorithms with assessment metadata can be
                    # evaluated; others would silently count as zero
                    # detections.
                    if c.algorithm in available
                ]
                substituted = False
                for candidate in candidates:
                    trial_assignment = dict(assignment)
                    trial_assignment[plan.camera_id] = candidate.algorithm
                    trial = grouping.trial(plan.camera_id, candidate.algorithm)
                    accuracy = memo.get(trial_assignment) or trial.accuracy
                    if accuracy.meets(desired):
                        grouping.commit(trial)
                        memo.put(trial_assignment, accuracy)
                        assignment = trial_assignment
                        substituted = True
                        break
                if not substituted:
                    break
            return assignment
