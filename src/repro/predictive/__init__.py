"""Predictive camera wake-up: online regressors over free telemetry.

The layer between :mod:`repro.resilience` and :mod:`repro.engine` in
the layer contract: it owns the per-camera activity regressors
(:mod:`repro.predictive.regressor`), their observation pipeline
(:mod:`repro.predictive.observations`) and the policy configuration
(:mod:`repro.predictive.config`).  The engine's ``predictive``
:class:`~repro.engine.policy.CoordinationPolicy`
imports this package — never the reverse (enforced by
``tests/test_layer_contract.py``).
"""

from repro.predictive.config import PredictiveConfig
from repro.predictive.observations import camera_activity
from repro.predictive.regressor import (
    ActivityPredictor,
    PredictorBank,
    RecursiveLeastSquares,
)

__all__ = [
    "ActivityPredictor",
    "PredictiveConfig",
    "PredictorBank",
    "RecursiveLeastSquares",
    "camera_activity",
]
