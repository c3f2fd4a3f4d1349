"""Performance layer: content-keyed caching and parallel maps.

The hot paths of the reproduction — frame feature extraction and the
GFK calibration pipeline — share this package.
:mod:`repro.perf.cache` memoises expensive array-valued computations
(PCA subspaces, GFK factors) under content hashes of their inputs, and
:mod:`repro.perf.parallel` provides the chunked process-pool map the
experiment harness fans independent run specs over.  Wall-clock
timing lives in the telemetry tracer (:mod:`repro.telemetry.trace`).
"""

from repro.perf.cache import ArrayCache, array_token
from repro.perf.parallel import parallel_map

__all__ = [
    "ArrayCache",
    "array_token",
    "parallel_map",
]
