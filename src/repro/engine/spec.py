"""Declarative deployment specs: one object describes one run.

A :class:`DeploymentSpec` is the single construction path the harness
and the CLI share: it names the dataset, the coordination policy and
the run parameters, validates them eagerly (a typo'd policy fails at
spec construction, not minutes into training), and knows how to build
the engine that executes it — training through the shared
:func:`~repro.engine.context.shared_context` cache so each dataset is
trained once per process.

Specs are frozen and hashable.  Every run reseeds from its own
configuration inside the engine, so the result depends only on the
spec — never on ``workers``, which only decides whether detection
batches run in-process or over a shared-memory process pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checkpoint.hooks import CheckpointConfig, RunCheckpointer
from repro.core.config import EECSConfig
from repro.datasets.synthetic import DATASET_SPECS
from repro.engine.context import shared_context
from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.executor import make_executor
from repro.engine.fleet import fleet_context
from repro.engine.policy import resolve_policy, validate_cells
from repro.fleet.cells import validate_cells_value
from repro.resilience.ladder import ResilienceConfig


@dataclass(frozen=True)
class DeploymentSpec:
    """One fully described deployment run.

    Attributes:
        dataset_number: Which synthetic dataset to deploy on.
        policy: Registered coordination policy name (validated at
            construction).
        budget: Per-frame energy budget for every camera.
        start / end: Frame window (``None`` = dataset defaults).
        assignment: Static camera->algorithm pairs for
            assignment-taking policies, as a tuple of pairs to keep
            the spec hashable.
        seed: Run-entropy seed (feeds every detection task's rng).
        train_seed: Offline-training seed; ``None`` uses the shared
            per-dataset convention (``2017 + dataset_number``).
        workers: Detection executor width: 1 runs in-process
            (``"serial"``), 2 or more fan out over the shared-memory
            process pool (``"shm"``).  Absent from the checkpoint
            fingerprint — every backend reproduces the serial run bit
            for bit, so a deployment may resume under a different
            width.
        executor: ``None`` or the backend name ``workers`` implies;
            anything else is a spec error.  Not a choice: it only
            lets a caller state the backend it expects.
        checkpoint_dir: Directory for crash-safe run checkpoints
            (``None`` disables checkpointing).
        checkpoint_every: Snapshot cadence in completed rounds.
        resume: Restore from ``checkpoint_dir``'s snapshot instead of
            starting fresh (no snapshot on disk = fresh start).
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
    """

    dataset_number: int
    policy: str = "full"
    budget: float | None = None
    start: int | None = None
    end: int | None = None
    assignment: tuple[tuple[str, str], ...] | None = None
    seed: int = 2017
    train_seed: int | None = None
    workers: int = 1
    executor: str | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    resilience: ResilienceConfig | None = None
    fleet_cameras: int | None = None
    cells: int | tuple[tuple[str, ...], ...] | None = None
    wake_threshold: float | None = None
    predictor_warmup: int | None = None
    wake_probe_every: int | None = None
    max_sleepers: int | None = None
    low_energy_below: float | None = None

    def __post_init__(self) -> None:
        # Fail fast: resolve_policy raises the "valid policies are ..."
        # ValueError for unknown names; the policy then checks its own
        # requirements (e.g. "fixed" without an assignment).
        policy = resolve_policy(self.policy)
        policy.validate(
            dict(self.assignment) if self.assignment else None
        )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        implied = "serial" if self.workers == 1 else "shm"
        if self.executor not in (None, implied):
            raise ValueError(
                f"executor {self.executor!r} does not match "
                f"workers={self.workers}, which implies {implied!r} "
                "(1 worker = 'serial', 2 or more = 'shm')"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
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
        predictive_fields = {
            "wake_threshold": self.wake_threshold,
            "predictor_warmup": self.predictor_warmup,
            "wake_probe_every": self.wake_probe_every,
            "max_sleepers": self.max_sleepers,
            "low_energy_below": self.low_energy_below,
        }
        set_fields = [k for k, v in predictive_fields.items() if v is not None]
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

    def make_checkpointer(self) -> RunCheckpointer | None:
        """The checkpoint driver this spec asks for (``None`` = off)."""
        if self.checkpoint_dir is None:
            return None
        return RunCheckpointer(
            CheckpointConfig(
                directory=self.checkpoint_dir,
                every=self.checkpoint_every,
                resume=self.resume,
            )
        )

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
        return DeploymentEngine(
            context,
            seed=self.seed,
            executor=make_executor(self.workers),
            telemetry=telemetry,
        )

    def execute(
        self,
        engine: DeploymentEngine | None = None,
        config: EECSConfig | None = None,
        telemetry=None,
        checkpointer: RunCheckpointer | None = None,
    ) -> RunResult:
        """Run this spec (building the engine unless one is supplied).

        A supplied ``engine`` must carry this spec's seed (build it
        with :meth:`build_engine`); a mismatch raises ``ValueError``
        rather than silently running the engine's seed.
        ``checkpointer`` overrides the spec's own checkpoint fields —
        the hook tests and the CLI use it to attach a ``crash_after``
        crash-injection config.
        """
        owns_engine = engine is None
        if engine is None:
            engine = self.build_engine(config=config, telemetry=telemetry)
        elif engine.seed != self.seed:
            raise ValueError(
                f"engine seed {engine.seed} does not match the spec's "
                f"seed {self.seed}"
            )
        if checkpointer is None:
            checkpointer = self.make_checkpointer()
        try:
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
        finally:
            if owns_engine:
                # A spec-built engine owns its executor backend; close
                # it so pools and shared segments never outlive the run.
                engine.close()
