"""Detection execution backends.

The engine expresses every phase's detection work as one
:class:`~repro.detection.batch.DetectionBatch` — a round's (frame,
camera, algorithm) tasks as plain data; a :class:`DetectionExecutor`
decides where that batch runs.  Because each task seeds its own
generator from the run entropy plus its coordinates, every backend
produces bit-identical results.  The worker count is the only
setting (:func:`make_executor`): one worker runs the batch in-process
(the serial reference), two or more fan contiguous chunks over a
persistent process pool whose workers read frame arrays zero-copy from
``multiprocessing.shared_memory`` segments — tasks ship only a
``(segment, offset, shape, dtype)`` reference plus the small per-view
metadata.

Adding a backend means implementing ``execute`` with order-preserving
semantics over a batch; nothing else in the engine changes.
"""

from __future__ import annotations

import math
import signal
import threading
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping, Sequence

import numpy as np

from repro.detection.base import Detection, Detector
from repro.detection.batch import DetectionBatch, DetectionTask, run_batch
from repro.world.renderer import FrameObservation


class DetectionExecutor(ABC):
    """Where a detection batch executes."""

    #: Registry name of the backend (used as a telemetry label).
    name: str = "abstract"

    #: Nominal degree of parallelism (1 for the serial backend).
    workers: int = 1

    @abstractmethod
    def execute(
        self,
        batch: DetectionBatch,
        detectors: Mapping[str, Detector],
    ) -> list[list[Detection]]:
        """Run every task of ``batch``, results in task order."""

    def close(self) -> None:
        """Release backend resources (pools, shared segments)."""

    def drain_stats(self) -> dict[str, int | float]:
        """Return and reset backend counters (empty when stateless)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialDetectionExecutor(DetectionExecutor):
    """In-process reference backend: the batch runs where it was built."""

    name = "serial"
    workers = 1

    def execute(
        self,
        batch: DetectionBatch,
        detectors: Mapping[str, Detector],
    ) -> list[list[Detection]]:
        return run_batch(detectors, batch.tasks)


# ----------------------------------------------------------------------
# Worker-process state (populated by pool initializers; each worker is
# its own process, so module globals are per-worker, not shared).
# ----------------------------------------------------------------------
_WORKER_DETECTORS: Mapping[str, Detector] | None = None
_WORKER_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def _init_pool_worker(detectors: Mapping[str, Detector]) -> None:
    """Pool initializer: ship the detector suite once per worker."""
    global _WORKER_DETECTORS
    _WORKER_DETECTORS = detectors


def _chunk_evenly(items: Sequence, parts: int) -> list[Sequence]:
    """Contiguous, order-preserving chunks of near-equal size."""
    parts = max(1, min(parts, len(items)))
    size = math.ceil(len(items) / parts)
    return [items[i : i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# Frames in shared memory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedFrameRef:
    """Zero-copy handle to a frame image inside a shared segment."""

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: str

    @property
    def count(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


@dataclass(frozen=True)
class _ShmTask:
    """A :class:`DetectionTask` with its frame image swapped for a
    :class:`SharedFrameRef`; everything else pickles as-is (the object
    views and clutter boxes are a few hundred bytes, the image is the
    payload worth sharing)."""

    algorithm: str
    entropy: tuple[int, ...]
    threshold: float | None
    camera_id: str
    frame_index: int
    objects: tuple
    clutter_regions: tuple
    image_scale: float
    frame: SharedFrameRef


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Worker-side segment cache: attach once, reuse for the run.

    The attach must not register with the resource tracker: the parent
    owns the segment's lifetime, and with a fork-context pool all
    processes share one tracker whose per-name cache is a set — a
    worker-side registration would either unlink the segment early or
    unbalance the parent's final unregister.  Python 3.13's
    ``track=False`` expresses this directly; on 3.11 the registration
    is suppressed for the duration of the attach.
    """
    segment = _WORKER_SEGMENTS.get(name)
    if segment is None:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        _WORKER_SEGMENTS[name] = segment
    return segment


def _run_shm_chunk(tasks: Sequence[_ShmTask]) -> list[list[Detection]]:
    """Worker-side entry point for the shm backend: rebuild each
    task's observation around a zero-copy view into the shared
    segment, then run the standard batch path."""
    resolved: list[DetectionTask] = []
    for task in tasks:
        ref = task.frame
        segment = _attach_segment(ref.segment)
        image = np.frombuffer(
            segment.buf,
            dtype=np.dtype(ref.dtype),
            count=ref.count,
            offset=ref.offset,
        ).reshape(ref.shape)
        observation = FrameObservation(
            camera_id=task.camera_id,
            frame_index=task.frame_index,
            objects=list(task.objects),
            clutter_regions=list(task.clutter_regions),
            image=image,
            image_scale=task.image_scale,
        )
        resolved.append(
            DetectionTask(
                algorithm=task.algorithm,
                observation=observation,
                entropy=task.entropy,
                threshold=task.threshold,
            )
        )
    return run_batch(_WORKER_DETECTORS, resolved)


def _release_segments(
    segments: list[shared_memory.SharedMemory],
) -> None:
    """Close and unlink every segment, tolerating repeat calls."""
    while segments:
        segment = segments.pop()
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


_sigterm_hooked = False


def _hook_sigterm_cleanup() -> None:
    """Convert a default-action SIGTERM into ``SystemExit`` so
    ``finally`` blocks and finalizers run and shared segments are
    unlinked.  Installed once, only over ``SIG_DFL`` — an existing
    handler (e.g. the checkpointer's) already unwinds the stack."""
    global _sigterm_hooked
    if _sigterm_hooked or threading.current_thread() is not threading.main_thread():
        return
    _sigterm_hooked = True
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(
                signal.SIGTERM,
                lambda signum, frame: (_ for _ in ()).throw(
                    SystemExit(128 + signum)
                ),
            )
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass


class SharedFrameStore:
    """Parent-side arena of shared-memory segments holding frame images.

    Frames are published once per ``(camera_id, frame_index)`` within a
    batch — a bump allocator packs them into fixed-size segments, and
    repeat publishes of the same frame return the existing reference
    (the ``hits`` counter).  :meth:`rewind` recycles the arena between
    batches: the segments (and their names, which workers have cached
    attachments to) survive, only the cursor and the references reset,
    so the arena is sized by the largest batch, not by the run.
    ``close()`` (or garbage collection, or normal interpreter exit via
    the finalizer) unlinks every segment.
    """

    #: 64-byte alignment keeps worker-side views cache-line aligned.
    _ALIGN = 64

    def __init__(self, segment_bytes: int = 8 << 20) -> None:
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be positive")
        self.segment_bytes = segment_bytes
        self._segments: list[shared_memory.SharedMemory] = []
        # Bump cursor: the segment being filled and the next free byte.
        self._current = 0
        self._cursor = 0
        self._refs: dict[tuple[str, int], SharedFrameRef] = {}
        self._hits = 0
        self._misses = 0
        self._published_bytes = 0
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )
        _hook_sigterm_cleanup()

    def put(self, observation: FrameObservation) -> SharedFrameRef:
        """Publish a frame image, deduplicating by frame identity."""
        key = (observation.camera_id, observation.frame_index)
        ref = self._refs.get(key)
        if ref is not None:
            self._hits += 1
            return ref
        self._misses += 1
        image = np.ascontiguousarray(observation.image)
        nbytes = image.nbytes
        segment, offset = self._allocate(nbytes)
        view = np.frombuffer(
            segment.buf, dtype=image.dtype, count=image.size, offset=offset
        )
        view[:] = image.ravel()
        self._published_bytes += nbytes
        ref = SharedFrameRef(
            segment=segment.name,
            offset=offset,
            shape=tuple(image.shape),
            dtype=image.dtype.str,
        )
        self._refs[key] = ref
        return ref

    def _allocate(
        self, nbytes: int
    ) -> tuple[shared_memory.SharedMemory, int]:
        """Bump-allocate ``nbytes``, moving on to the next segment (or
        opening a new one) when the current one is full."""
        offset = -(-self._cursor // self._ALIGN) * self._ALIGN
        while self._current < len(self._segments):
            segment = self._segments[self._current]
            if offset + nbytes <= segment.size:
                self._cursor = offset + nbytes
                return segment, offset
            self._current += 1
            offset = 0
        segment = shared_memory.SharedMemory(
            create=True, size=max(self.segment_bytes, self._ALIGN, nbytes)
        )
        self._segments.append(segment)
        self._cursor = nbytes
        return segment, 0

    def rewind(self) -> None:
        """Forget every published frame and reuse the segments from the
        start.  Only safe once no worker reads the old references."""
        self._refs.clear()
        self._current = 0
        self._cursor = 0

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def drain_stats(self) -> dict[str, int | float]:
        """Return and reset the hit/miss counters; segment totals are
        reported as current state, not deltas."""
        stats = {
            "shm_hits": self._hits,
            "shm_misses": self._misses,
            "shm_segments": len(self._segments),
            "shm_published_bytes": self._published_bytes,
        }
        self._hits = 0
        self._misses = 0
        return stats

    def close(self) -> None:
        """Unlink every segment; safe to call more than once."""
        self._refs.clear()
        self._finalizer()


class SharedMemoryDetectionExecutor(DetectionExecutor):
    """Fan batch chunks over a persistent process pool whose workers
    read frames zero-copy.

    The pool is created lazily on the first batch and reused until
    :meth:`close` — the initializer ships the detector suite once per
    worker instead of pickling it with every task.  Frame images are
    published to a :class:`SharedFrameStore`; the pickled tasks carry
    only ``(segment, offset, shape, dtype)`` references plus per-view
    metadata, so the per-batch IPC payload is independent of image
    size.  Results are identical to serial execution; single-task
    batches run in-process.
    """

    name = "shm"

    def __init__(self, workers: int, segment_bytes: int = 8 << 20) -> None:
        if workers < 2:
            raise ValueError(
                f"shared-memory backend needs workers >= 2, got {workers}"
            )
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._pool_detectors: Mapping[str, Detector] | None = None
        self.store = SharedFrameStore(segment_bytes=segment_bytes)

    def _ensure_pool(
        self, detectors: Mapping[str, Detector]
    ) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_detectors is not detectors:
            # A different suite invalidates the initializer-shipped
            # copy; engines keep one suite for life, so this is rare.
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_pool_worker,
                initargs=(detectors,),
            )
            self._pool_detectors = detectors
        return self._pool

    def _encode(self, task: DetectionTask) -> _ShmTask:
        observation = task.observation
        return _ShmTask(
            algorithm=task.algorithm,
            entropy=task.entropy,
            threshold=task.threshold,
            camera_id=observation.camera_id,
            frame_index=observation.frame_index,
            objects=tuple(observation.objects),
            clutter_regions=tuple(observation.clutter_regions),
            image_scale=observation.image_scale,
            frame=self.store.put(observation),
        )

    def execute(
        self,
        batch: DetectionBatch,
        detectors: Mapping[str, Detector],
    ) -> list[list[Detection]]:
        if len(batch) <= 1:
            # Nothing to amortise the IPC against; the in-process path
            # is bit-identical by construction.
            return run_batch(detectors, batch.tasks)
        pool = self._ensure_pool(detectors)
        encoded = [self._encode(task) for task in batch.tasks]
        results: list[list[Detection]] = []
        for part in pool.map(
            _run_shm_chunk, _chunk_evenly(encoded, self.workers)
        ):
            results.extend(part)
        # Every chunk has returned, so no worker still reads this
        # batch's frames: the next batch may overwrite them.
        self.store.rewind()
        return results

    def drain_stats(self) -> dict[str, int | float]:
        return self.store.drain_stats()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_detectors = None
        self.store.close()


def make_executor(workers: int) -> DetectionExecutor:
    """The backend for a worker count: one worker runs in-process,
    two or more fan out over the shared-memory process pool."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialDetectionExecutor()
    return SharedMemoryDetectionExecutor(workers)
