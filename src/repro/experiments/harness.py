"""Shared experiment infrastructure.

Building a deployment involves offline training over a dataset's whole
training segment (~5 s); experiments and benchmarks share that work
through the engine-owned
:func:`~repro.engine.context.shared_context` cache, which holds only
the *immutable* trained artefacts (dataset, library, matcher, energy
model).  :func:`get_engine` hands out a fresh engine each call —
per-run mutable state (controller, batteries, rng streams) is never
shared, so experiments cannot leak state into each other through a
cached engine.

Independent experiment configurations (:class:`RunSpec`) can fan out
over a process pool via :func:`run_specs`.  Every run reseeds from its
own configuration, so serial and parallel execution produce identical
results; ``workers=1`` falls back to a plain in-process loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import EECSConfig
from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.context import shared_context
from repro.engine.policy import resolve_policy
from repro.engine.spec import DeploymentSpec
from repro.perf.parallel import parallel_map


def get_engine(
    dataset_number: int, config: EECSConfig | None = None
) -> DeploymentEngine:
    """An engine over the shared trained context for a dataset.

    Training is cached per ``(dataset, config, seed)`` by the engine's
    :func:`~repro.engine.context.shared_context`; the returned engine
    is fresh per call, so callers get the cached (expensive,
    immutable) artefacts with none of the per-run mutable state of
    previous experiments.
    """
    return DeploymentEngine(shared_context(dataset_number, config=config))


@dataclass(frozen=True)
class RunSpec:
    """One independent deployment-run configuration.

    Frozen and fully picklable so a batch of specs can be shipped to
    worker processes.  ``assignment`` (for ``"fixed"`` mode) is a
    tuple of (camera_id, algorithm) pairs rather than a dict to keep
    the spec hashable.  The mode is validated at construction: an
    unknown policy name raises ``ValueError`` immediately, listing the
    registered policies.

    ``checkpoint_dir``/``checkpoint_every``/``resume`` pass straight
    through to the deployment spec: a batch run that names a distinct
    directory per spec survives pre-emption mid-batch — completed
    specs have checkpoints their re-runs restore bit-identically.
    """

    dataset_number: int
    mode: str = "full"
    budget: float | None = None
    start: int | None = None
    end: int | None = None
    assignment: tuple[tuple[str, str], ...] | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False

    def __post_init__(self) -> None:
        policy = resolve_policy(self.mode)
        policy.validate(
            dict(self.assignment) if self.assignment else None
        )

    def to_deployment_spec(self) -> DeploymentSpec:
        """The engine-level spec this configuration describes."""
        return DeploymentSpec(
            dataset_number=self.dataset_number,
            policy=self.mode,
            budget=self.budget,
            start=self.start,
            end=self.end,
            assignment=self.assignment,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            resume=self.resume,
        )


def _execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec on the (per-process) shared context."""
    return spec.to_deployment_spec().execute()


def run_specs(
    specs: list[RunSpec], workers: int = 1
) -> list[RunResult]:
    """Execute independent run configurations, optionally in parallel.

    Each spec's run reseeds from its own configuration inside the
    engine, so the results are identical whatever ``workers`` is;
    order follows the input specs.  Worker processes build (or
    inherit, under fork) their own shared-context cache.
    """
    return parallel_map(_execute_spec, specs, workers=workers, chunksize=1)
