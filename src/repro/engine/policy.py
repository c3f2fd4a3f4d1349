"""Coordination policies: who runs what, decided how.

The paper evaluates four coordination strategies (Section VI-E): the
all-best baseline, EECS camera-subset selection, full EECS with
algorithm downgrade, and static caller-supplied assignments.  Each is
a :class:`CoordinationPolicy`: it partitions the deployment window
into rounds (:class:`RoundPlan`) and, for assessing policies, turns an
assessment period's metadata into a
:class:`~repro.core.controller.SelectionDecision`.

The engine never branches on policy names — adding a strategy is a new
subclass plus :func:`register_policy`; the engine's phase loop and
both execution environments pick it up unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.core.controller import SelectionDecision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.selection import AssessmentData
    from repro.datasets.base import FrameRecord
    from repro.energy.meter import EnergyMeter
    from repro.engine.core import DeploymentEngine


@dataclass(frozen=True)
class RoundPlan:
    """One scheduling unit of a deployment.

    Attributes:
        records: The round's ground-truth frames, in order.
        assess_count: How many leading frames feed the accuracy
            assessment (0 for non-assessing policies: the whole round
            is operational).
        static_assignments: Per-record camera->algorithm maps for
            rounds that operate without a selection decision; ``None``
            when the assignment comes from :meth:`CoordinationPolicy.select`.
        skip_cameras: Cameras excluded from this round's assessment —
            they run nothing, upload nothing and are charged nothing.
            Normally empty; the ``predictive`` policy's
            :meth:`CoordinationPolicy.refine_round` fills it with the
            cameras its regressors predict idle.
    """

    records: list["FrameRecord"]
    assess_count: int = 0
    static_assignments: list[dict[str, str]] | None = None
    skip_cameras: tuple[str, ...] = ()


def assessed_rounds(
    engine: "DeploymentEngine", records: list["FrameRecord"]
) -> list[RoundPlan]:
    """The assessing policies' round schedule: one assessment period
    at the start of every re-calibration interval."""
    per_round = engine.gt_frames_per_round
    per_assessment = engine.gt_frames_per_assessment
    return [
        RoundPlan(
            records=records[start : start + per_round],
            assess_count=per_assessment,
        )
        for start in range(0, len(records), per_round)
    ]


class CoordinationPolicy(ABC):
    """Strategy for scheduling assessment and choosing assignments."""

    #: Registry key; also feeds the run entropy (via
    #: :meth:`entropy_token`) and ``RunResult.mode``, so renaming a
    #: policy changes its rng stream.
    name: ClassVar[str]

    #: Policy whose rng stream this one shares; ``None`` means the
    #: policy has its own stream keyed by :attr:`name`.  A policy that
    #: must reproduce another policy's detections exactly — the
    #: hierarchical ``cell`` policy collapses to flat ``subset`` at one
    #: cell — aliases that policy's entropy instead of forking a new
    #: stream.
    entropy_alias: ClassVar[str | None] = None

    #: Whether :meth:`plan_rounds` needs a caller-supplied assignment.
    requires_assignment: ClassVar[bool] = False

    #: Whether selection may downgrade algorithms (Section IV-B.4).
    enable_downgrade: ClassVar[bool] = False

    #: Whether the policy shards the fleet by the run's cell layout.
    uses_cells: ClassVar[bool] = False

    def entropy_token(self) -> int:
        """The policy's contribution to the run entropy."""
        return sum((self.entropy_alias or self.name).encode())

    def validate(self, assignment: dict[str, str] | None) -> None:
        """Reject configurations the policy cannot run."""
        if self.requires_assignment and not assignment:
            raise ValueError(
                f"policy {self.name!r} needs an explicit assignment"
            )

    @abstractmethod
    def plan_rounds(
        self,
        engine: "DeploymentEngine",
        records: list["FrameRecord"],
        budget: float | None,
        assignment: dict[str, str] | None,
    ) -> list[RoundPlan]:
        """Partition the deployment window into rounds."""

    def refine_round(
        self,
        engine: "DeploymentEngine",
        round_plan: RoundPlan,
        round_index: int,
    ) -> RoundPlan:
        """Last-moment adjustment of one round, at its start.

        Called by the engine at every assessed round boundary (after
        the clock has advanced to the round's first frame, before any
        detection runs).  A policy that schedules per-round — the
        ``predictive`` policy fills :attr:`RoundPlan.skip_cameras`
        from its regressors here — returns an adjusted plan; it must
        preserve ``records`` and ``assess_count`` (the phase schedule
        belongs to :meth:`plan_rounds`).  The default is the identity.
        """
        return round_plan

    def snapshot_state(self) -> dict | None:
        """Per-run mutable policy state as exact JSON values.

        ``None`` (the default for stateless policies) keeps the
        checkpoint payload unchanged, so pre-existing checkpoints and
        their fingerprints are untouched.  Stateful policies — the
        ``predictive`` policy snapshots its regressor bank and sleep
        counters — return a dict that :meth:`restore_state` can adopt
        bit for bit.
        """
        return None

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` payload (default: no-op)."""

    def config_fingerprint(self) -> dict | None:
        """Configuration that must match for a checkpoint resume.

        ``None`` (the default) adds nothing to the checkpoint
        fingerprint; policies whose tunables change the trajectory
        (wake thresholds, warmup) return them here so a resume under a
        different configuration is refused instead of silently
        diverging.
        """
        return None

    def select(
        self,
        engine: "DeploymentEngine",
        assessment: "AssessmentData",
        budget_overrides: dict[str, float] | None,
        meter: "EnergyMeter | None" = None,
    ) -> SelectionDecision:
        """Turn assessment metadata into the round's assignment.

        ``meter`` is the run's energy meter: policies whose selection
        itself costs radio energy (cell-coordinator messaging) charge it
        here; the paper's centralised policies ignore it.
        """
        raise NotImplementedError(
            f"policy {self.name!r} does not assess"
        )  # pragma: no cover - non-assessing policies plan assess_count=0


_REGISTRY: dict[str, type[CoordinationPolicy]] = {}


def register_policy(
    cls: type[CoordinationPolicy],
) -> type[CoordinationPolicy]:
    """Class decorator: make a policy constructible by name."""
    _REGISTRY[cls.name] = cls
    return cls


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def validate_policy_name(name: str) -> None:
    """Raise a ``ValueError`` listing valid policies for bad names."""
    if name not in _REGISTRY:
        valid = ", ".join(repr(n) for n in available_policies())
        raise ValueError(
            f"unknown policy {name!r}; valid policies are {valid}"
        )


def validate_cells(policy: "CoordinationPolicy", cells: object) -> None:
    """Reject a cell layout for a policy that would ignore it."""
    if cells is not None and not policy.uses_cells:
        valid = ", ".join(
            repr(name)
            for name in available_policies()
            if _REGISTRY[name].uses_cells
        )
        raise ValueError(
            f"policy {policy.name!r} does not use cells; "
            f"cell-aware policies are {valid}"
        )


def resolve_policy(policy: "CoordinationPolicy | str") -> CoordinationPolicy:
    """An instance from a name (or pass an instance through)."""
    if isinstance(policy, CoordinationPolicy):
        return policy
    validate_policy_name(policy)
    return _REGISTRY[policy]()


@register_policy
class FixedAssignmentPolicy(CoordinationPolicy):
    """A caller-supplied static camera->algorithm map, no assessment
    (the Fig. 4 trade-off points)."""

    name = "fixed"
    requires_assignment = True

    def plan_rounds(self, engine, records, budget, assignment):
        return [
            RoundPlan(
                records=records,
                static_assignments=[assignment] * len(records),
            )
        ]


@register_policy
class AllBestPolicy(CoordinationPolicy):
    """Every camera on its most accurate affordable algorithm every
    frame (the paper's baseline, left bars of Fig. 5)."""

    name = "all_best"

    def plan_rounds(self, engine, records, budget, assignment):
        return [
            RoundPlan(
                records=records,
                static_assignments=[
                    engine.all_best_assignment(budget) for _ in records
                ],
            )
        ]


@register_policy
class SubsetPolicy(CoordinationPolicy):
    """EECS camera-subset selection with best algorithms kept
    (the middle bars of Fig. 5)."""

    name = "subset"
    enable_downgrade = False

    def plan_rounds(self, engine, records, budget, assignment):
        return assessed_rounds(engine, records)

    def select(self, engine, assessment, budget_overrides, meter=None):
        return engine.controller.select(
            assessment,
            enable_subset=True,
            enable_downgrade=self.enable_downgrade,
            budget_overrides=budget_overrides,
        )


@register_policy
class FullEECSPolicy(SubsetPolicy):
    """Subset selection plus algorithm downgrade (right bars of
    Fig. 5): the paper's full protocol."""

    name = "full"
    enable_downgrade = True
