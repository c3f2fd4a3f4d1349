"""The unified deployment engine.

One simulation core behind every way the repo runs a deployment:

* :mod:`repro.engine.core` — :class:`DeploymentEngine`, the single
  phase-scheduling loop (assessment periods, re-calibration
  intervals, per-frame operation) and :class:`RunResult`.
* :mod:`repro.engine.policy` — pluggable
  :class:`CoordinationPolicy` strategies (all-best, subset, full
  EECS, fixed) with a by-name registry.
* :mod:`repro.engine.executor` — :class:`SerialDetectionExecutor`,
  which runs each detection batch in-process.
* :mod:`repro.engine.environment` — the fault-injected network
  (:class:`FaultInjectedEnvironment`), where ``network=True`` specs
  run; ``network=False`` specs run the engine's own in-process loop.
* :mod:`repro.engine.context` — the immutable trained substrate
  (:class:`DeploymentContext`) and the engine-owned
  :func:`shared_context` cache.
* :mod:`repro.engine.spec` — :class:`DeploymentSpec`, the one
  description of a run in either environment, shared by the
  experiments and the CLI.
* :mod:`repro.engine.clock` — :class:`SimulationClock`, explicit
  frame-cadence simulated time.

Layering contract (enforced by ``tests/test_layer_contract.py`` in
CI): this package never imports from ``repro.experiments`` or
``repro.cli`` — experiments and the CLI sit *above* the engine.
"""

from repro.engine.clock import SimulationClock
from repro.engine.context import DeploymentContext, shared_context
from repro.engine.core import DeploymentEngine, RunResult
from repro.engine.fleet import CellPolicy, FullCellPolicy, fleet_context
from repro.engine.environment import FaultInjectedEnvironment, NetworkOutcome
from repro.engine.executor import SerialDetectionExecutor
from repro.engine.predictive import PredictivePolicy
from repro.engine.policy import (
    AllBestPolicy,
    CoordinationPolicy,
    FixedAssignmentPolicy,
    FullEECSPolicy,
    RoundPlan,
    SubsetPolicy,
    available_policies,
    register_policy,
    resolve_policy,
    validate_policy_name,
)
from repro.engine.spec import DeploymentSpec

__all__ = [
    "AllBestPolicy",
    "CellPolicy",
    "CoordinationPolicy",
    "DeploymentContext",
    "DeploymentEngine",
    "DeploymentSpec",
    "FaultInjectedEnvironment",
    "FixedAssignmentPolicy",
    "FullCellPolicy",
    "FullEECSPolicy",
    "PredictivePolicy",
    "NetworkOutcome",
    "RoundPlan",
    "RunResult",
    "SerialDetectionExecutor",
    "SimulationClock",
    "SubsetPolicy",
    "available_policies",
    "fleet_context",
    "register_policy",
    "resolve_policy",
    "shared_context",
    "validate_policy_name",
]
