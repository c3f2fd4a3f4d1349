"""Performance layer: content-keyed caching.

The hot paths of the reproduction — frame feature extraction and the
GFK calibration pipeline — share :mod:`repro.perf.cache`, which
memoises expensive array-valued computations (PCA subspaces, GFK
factors) under content hashes of their inputs.  Wall-clock timing
lives in the telemetry tracer (:mod:`repro.telemetry.trace`).
"""

from repro.perf.cache import ArrayCache, array_token

__all__ = [
    "ArrayCache",
    "array_token",
]
