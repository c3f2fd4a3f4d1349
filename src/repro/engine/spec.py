"""Declarative deployment specs: one object describes one run.

A :class:`DeploymentSpec` is the single construction path the
experiments, the CLI and the chaos experiment share, in either execution
environment: the in-process frame feed (``network=False``) or the
fault-injected discrete-event network (``network=True``).  It names
the dataset, the coordination policy, the run parameters and — on the
network — the faults to inject, validates them eagerly (a typo'd
policy or a fault knob the environment cannot honour fails at spec
construction, not minutes into training), and knows how to build the
engine that executes it — training through the shared
:func:`~repro.engine.context.shared_context` cache so each dataset is
trained once per process.

Specs are frozen and hashable.  Every run reseeds from its own
configuration, so the result depends only on the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.checkpoint.hooks import RunCheckpointer
from repro.core.config import EECSConfig
from repro.datasets.synthetic import DATASET_SPECS
from repro.engine.context import shared_context
from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.environment import FaultInjectedEnvironment, NetworkOutcome
from repro.engine.fleet import fleet_context
from repro.engine.policy import resolve_policy, validate_cells
from repro.faults.plan import FaultPlan
from repro.fleet.cells import validate_cells_value
from repro.resilience.ladder import ResilienceConfig

#: Tunables of the ``predictive`` policy.
PREDICTIVE_FIELDS = (
    "wake_threshold",
    "predictor_warmup",
    "wake_probe_every",
    "max_sleepers",
    "low_energy_below",
)

#: Knobs of the default fault plan (networked runs only); each is
#: inert at its default.
FAULT_FIELDS = (
    "loss_rate",
    "crash_count",
    "reboot_s",
    "fault_camera_count",
    "sensor_noise",
    "sensor_fp_rate",
    "stuck",
    "score_drift_per_s",
    "clock_skew",
    "corruption_rate",
)


@dataclass(frozen=True)
class DeploymentSpec:
    """One fully described deployment run.

    Each field is honoured in both environments or rejected at
    construction in the one where it means nothing: the fault fields
    need ``network=True``; ``policy`` other than ``"full"``,
    ``assignment``, ``fleet_cameras``, ``cells`` and the predictive
    tunables need ``network=False``.  Checkpointing is not part of
    the description: pass a
    :class:`~repro.checkpoint.hooks.RunCheckpointer` to
    :meth:`execute`.

    Attributes:
        dataset_number: Which synthetic dataset to deploy on.
        network: Deploy over the fault-injected discrete-event network
            (:class:`~repro.engine.environment.FaultInjectedEnvironment`)
            instead of the in-process frame feed.  The networked
            controller always runs the full protocol (subset selection
            plus downgrade) on the dataset's own cameras.
        policy: Registered coordination policy name (validated at
            construction).
        budget: Per-frame energy budget for every camera (``None`` =
            derived from the battery, as in the paper).
        start / end: Frame window (``None`` = the dataset's test
            segment); both environments process its ground-truth
            frames.
        assignment: Static camera->algorithm pairs for
            assignment-taking policies, as a tuple of pairs to keep
            the spec hashable.
        seed: Run-entropy seed: feeds every detection task's rng on
            the ideal feed and the fault injector's rng on the
            network.
        train_seed: Offline-training seed; ``None`` uses the shared
            per-dataset convention (``2017 + dataset_number``).
        executor: ``None`` or ``"serial"``, the only backend;
            anything else is a spec error.  Not a choice: it exists
            only because ``perfbench/workloads.py`` passes
            ``executor="serial"``, and goes once perfbench may be
            edited (like the ``ChaosSpec`` shim).
        resilience: Graceful-degradation layer configuration; ``None``
            (or ``enabled=False``) keeps the layer off.  On the ideal
            feed the layer is provably inert — results are identical
            either way — but enabling it here keeps one spec valid for
            both execution environments.
        fleet_cameras: Tile the trained dataset into a synthetic fleet
            of this many cameras (``None`` = the dataset's own
            cameras).  Training cost does not grow with fleet size —
            tiles alias the base profiles.
        cells: Fleet cell layout for the cell-aware policies
            (``"cell"``, ``"cell_full"``): a cell count, or an explicit
            tuple of camera-id tuples (kept as tuples so the spec stays
            hashable).  ``None`` means one fleet-wide cell; a layout
            with any other policy is a spec error.
        wake_threshold / predictor_warmup / wake_probe_every /
        max_sleepers / low_energy_below: Tunables of the
            ``predictive`` policy (see
            :class:`~repro.predictive.PredictiveConfig`); ``None``
            keeps each default.  ``max_sleepers=0`` spells "uncapped".
            Any of them set with a different policy is a spec error.
        loss_rate / crash_count / reboot_s / fault_camera_count /
        sensor_noise / sensor_fp_rate / stuck / score_drift_per_s /
        clock_skew / corruption_rate: The default fault plan (see
            :func:`~repro.engine.environment.fault_plan_for`): uniform
            link loss; ``crash_count`` cameras crash (and reboot at
            ``reboot_s``, if set); the first ``fault_camera_count``
            cameras suffer sensor noise (suppressed real detections),
            fabricated detections (a Poisson rate per message), a
            frozen sensor, score drift per simulated second,
            fractional clock skew (0.5 = 50% slow) and garbled
            messages.  Each is inert at its default.
        fault_plan: An explicit :class:`~repro.faults.plan.FaultPlan`
            to inject instead of the one the fault fields describe;
            setting both is a spec error.
    """

    dataset_number: int
    network: bool = False
    policy: str = "full"
    budget: float | None = None
    start: int | None = None
    end: int | None = None
    assignment: tuple[tuple[str, str], ...] | None = None
    seed: int = 2017
    train_seed: int | None = None
    executor: str | None = None
    resilience: ResilienceConfig | None = None
    fleet_cameras: int | None = None
    cells: int | tuple[tuple[str, ...], ...] | None = None
    wake_threshold: float | None = None
    predictor_warmup: int | None = None
    wake_probe_every: int | None = None
    max_sleepers: int | None = None
    low_energy_below: float | None = None
    loss_rate: float = 0.0
    crash_count: int = 0
    reboot_s: float | None = None
    fault_camera_count: int = 1
    sensor_noise: float = 0.0
    sensor_fp_rate: float = 0.0
    stuck: bool = False
    score_drift_per_s: float = 0.0
    clock_skew: float = 0.0
    corruption_rate: float = 0.0
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        self._validate_environment()
        # Fail fast: resolve_policy raises the "valid policies are ..."
        # ValueError for unknown names; the policy then checks its own
        # requirements (e.g. "fixed" without an assignment).
        policy = resolve_policy(self.policy)
        policy.validate(
            dict(self.assignment) if self.assignment else None
        )
        if self.executor not in (None, "serial"):
            raise ValueError(
                f"unknown executor {self.executor!r}: 'serial' is the "
                "only backend"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceConfig
        ):
            raise TypeError(
                "resilience must be a ResilienceConfig, got "
                f"{type(self.resilience).__name__}"
            )
        if self.fleet_cameras is not None and self.fleet_cameras < 1:
            raise ValueError(
                f"fleet_cameras must be >= 1, got {self.fleet_cameras}"
            )
        validate_cells(policy, self.cells)
        if self.cells is not None:
            # Same fail-fast contract: a malformed layout (duplicate
            # camera ids, empty cells, more cells than cameras) must
            # surface at spec construction, not after training.
            base = DATASET_SPECS.get(self.dataset_number)
            num_cameras = (
                self.fleet_cameras
                if self.fleet_cameras is not None
                else (base.num_cameras if base is not None else None)
            )
            validate_cells_value(
                self.cells, field="cells", num_cameras=num_cameras
            )
        set_fields = [
            name
            for name in PREDICTIVE_FIELDS
            if getattr(self, name) is not None
        ]
        if set_fields and self.policy != "predictive":
            raise ValueError(
                f"{', '.join(set_fields)} require(s) policy "
                f"'predictive', got {self.policy!r}"
            )
        if self.policy == "predictive":
            # Fail fast: a bad wake configuration (negative threshold,
            # zero warmup) surfaces at spec construction, not after
            # training.  The same construction happens again in
            # execute(), so the two can never disagree.
            self._predictive_config()

    def _validate_environment(self) -> None:
        """Reject fields the chosen environment cannot honour."""
        defaults = {f.name: f.default for f in fields(self)}
        faults = [
            name
            for name in FAULT_FIELDS
            if getattr(self, name) != defaults[name]
        ]
        if self.network:
            ideal_only = {
                "policy": self.policy != "full",
                "assignment": self.assignment is not None,
                "fleet_cameras": self.fleet_cameras is not None,
                "cells": self.cells is not None,
            }
            ideal_only.update(
                (name, getattr(self, name) is not None)
                for name in PREDICTIVE_FIELDS
            )
            rejected = [name for name, is_set in ideal_only.items() if is_set]
            if rejected:
                raise ValueError(
                    f"{', '.join(rejected)} require(s) network=False: "
                    "the networked controller always runs the full "
                    "protocol on the dataset's own cameras"
                )
            if self.fault_plan is not None and faults:
                raise ValueError(
                    f"fault_plan replaces the fault fields; drop "
                    f"{', '.join(faults)} or the plan"
                )
        elif faults or self.fault_plan is not None:
            named = faults + ["fault_plan"] * (self.fault_plan is not None)
            raise ValueError(
                f"{', '.join(named)} require(s) network=True: the "
                "ideal feed injects no faults"
            )

    def _predictive_config(self):
        """The :class:`~repro.predictive.PredictiveConfig` this spec
        describes (policy ``"predictive"`` only)."""
        from repro.predictive import PredictiveConfig

        return PredictiveConfig.from_overrides(
            wake_threshold=self.wake_threshold,
            predictor_warmup=self.predictor_warmup,
            probe_every=self.wake_probe_every,
            max_sleepers=self.max_sleepers,
            low_energy_below=self.low_energy_below,
            seed=self.seed,
        )

    def _runtime_policy(self):
        """The policy instance :meth:`execute` hands to the engine.

        Plain names pass through (the engine resolves them);
        ``predictive`` is constructed here so the spec's wake tunables
        reach the policy.
        """
        if self.policy != "predictive":
            return self.policy
        from repro.engine.predictive import PredictivePolicy

        return PredictivePolicy(self._predictive_config())

    def build_engine(
        self,
        config: EECSConfig | None = None,
        telemetry=None,
    ) -> DeploymentEngine:
        """An engine over the shared trained context for this spec."""
        if self.fleet_cameras is not None:
            context = fleet_context(
                self.fleet_cameras,
                base_number=self.dataset_number,
                config=config,
                train_seed=self.train_seed,
            )
        else:
            context = shared_context(
                self.dataset_number,
                config=config,
                train_seed=self.train_seed,
            )
        return DeploymentEngine(context, seed=self.seed, telemetry=telemetry)

    def execute(
        self,
        engine: DeploymentEngine | None = None,
        config: EECSConfig | None = None,
        telemetry=None,
        checkpointer: RunCheckpointer | None = None,
    ) -> RunResult | NetworkOutcome:
        """Run this spec (building the engine unless one is supplied).

        The ideal feed returns a :class:`~repro.engine.core.RunResult`;
        the network returns a
        :class:`~repro.engine.environment.NetworkOutcome`.

        On the ideal feed a supplied ``engine`` must carry this spec's
        seed (build it with :meth:`build_engine`) and ``telemetry``,
        if given, must be the engine's own; a mismatch raises
        ``ValueError`` rather than silently running the engine's seed
        or dropping the telemetry.  The network draws nothing from the
        engine's seed, and records into ``telemetry`` (default: the
        engine's).  ``checkpointer`` makes the run crash-safe: it
        snapshots every ``K`` completed rounds (frame ticks on the
        network) and, configured to resume, restores its snapshot
        first (see :class:`~repro.checkpoint.hooks.RunCheckpointer`).
        """
        if engine is None:
            engine = self.build_engine(
                config=config, telemetry=None if self.network else telemetry
            )
        elif not self.network:
            if engine.seed != self.seed:
                raise ValueError(
                    f"engine seed {engine.seed} does not match the "
                    f"spec's seed {self.seed}"
                )
            if telemetry is not None and telemetry is not engine.telemetry:
                raise ValueError(
                    "the ideal feed records into the engine's telemetry; "
                    "build the engine with this telemetry instead"
                )
        if self.network:
            return FaultInjectedEnvironment(
                self, telemetry=telemetry, checkpointer=checkpointer
            ).execute(engine)
        return engine.run(
            self._runtime_policy(),
            budget=self.budget,
            assignment=dict(self.assignment) if self.assignment else None,
            start=self.start,
            end=self.end,
            checkpointer=checkpointer,
            resilience=self.resilience,
            cells=self.cells,
        )
