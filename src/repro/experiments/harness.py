"""Shared experiment infrastructure.

Building a deployment involves offline training over a dataset's whole
training segment (~5 s); experiments and benchmarks share that work
through the engine-owned
:func:`~repro.engine.context.shared_context` cache, which holds only
the *immutable* trained artefacts (dataset, library, matcher, energy
model).  :func:`get_engine` hands out a fresh engine each call —
per-run mutable state (controller, batteries, rng streams) is never
shared, so experiments cannot leak state into each other through a
cached engine.  A fully described run is a
:class:`~repro.engine.spec.DeploymentSpec`.
"""

from __future__ import annotations

from repro.core.config import EECSConfig
from repro.engine.core import DeploymentEngine
from repro.engine.context import shared_context


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

