"""Batched detection: a round's tasks as one unit of work.

The engine used to fan detection out one closure per (frame, camera,
algorithm) triple.  A :class:`DetectionBatch` instead carries the
round's tasks as plain data — each task names its algorithm, its frame
observation and the seed entropy of its private generator — and
:func:`run_batch` guarantees the semantics: tasks grouped by
algorithm, results returned in task order, every task seeded from its
own entropy.

Because each task's generator is a pure function of its (frame,
camera, algorithm) coordinates, batching changes *in what grouping*
tasks run but never *what* they compute: results are bit-identical to
the one-task-at-a-time path, and to any split of the batch.

Seeding is batched too.  ``np.random.default_rng(list(entropy))``
costs a SeedSequence hash plus a PCG64 initialisation per task — pure
integer arithmetic on the task's coordinates — so
:func:`seeded_generators` runs numpy's own derivation vectorised over
the batch and hands each task one reused generator in exactly the
state ``default_rng`` would have built.  numpy keeps both streams
stable across releases (NEP 19); the property test in
``tests/test_batch_seeding.py`` pins the equality.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.detection.base import Detection
    from repro.detection.detectors import SimulatedDetector
    from repro.world.renderer import FrameObservation


@dataclass(frozen=True)
class DetectionTask:
    """One self-contained detection work unit.

    Attributes:
        algorithm: Name of the detector to run (a key of the engine's
            detector suite).
        observation: The frame observation to detect on.
        entropy: Seed entropy of the task's private generator — a pure
            function of the run configuration and the task's (frame,
            camera, algorithm) coordinates, never of execution order.
        threshold: Score cut-off (``None`` keeps every candidate).
    """

    algorithm: str
    observation: "FrameObservation"
    entropy: tuple[int, ...]
    threshold: float | None

    def make_rng(self) -> np.random.Generator:
        """The task's private, coordinate-seeded generator."""
        return np.random.default_rng(list(self.entropy))


@dataclass(frozen=True)
class DetectionBatch:
    """An ordered collection of detection tasks, run as one unit."""

    tasks: tuple[DetectionTask, ...]

    def __len__(self) -> int:
        return len(self.tasks)


def run_batch(
    detectors: Mapping[str, "SimulatedDetector"],
    tasks: Sequence[DetectionTask],
) -> list[list["Detection"]]:
    """Execute tasks against a detector suite, preserving task order.

    Tasks are grouped by algorithm so each detector's
    :meth:`~repro.detection.detectors.SimulatedDetector.detect_batch`
    can vectorise its shared per-view computation across the whole
    group.
    """
    results: list[list[Detection] | None] = [None] * len(tasks)
    groups: dict[str, list[int]] = {}
    for index, task in enumerate(tasks):
        groups.setdefault(task.algorithm, []).append(index)
    for algorithm, indices in groups.items():
        detector = detectors[algorithm]
        outputs = detector.detect_batch([tasks[i] for i in indices])
        for index, output in zip(indices, outputs):
            results[index] = output
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Batch seeding: numpy's SeedSequence -> PCG64 derivation, vectorised
# ----------------------------------------------------------------------
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# generate_state(4, uint64) reads the pool cyclically for 8 words.
_STATE_WORDS = 2 * _POOL_SIZE
_CYCLE = np.arange(_STATE_WORDS) % _POOL_SIZE
#: Entropies derived per vectorised pass: large enough to amortise the
#: pass's fixed numpy-call cost, small enough to keep its temporaries
#: (word table, pool, states) a few tens of KB.
_SEED_CHUNK = 256


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a hash-constant sequence.

    SeedSequence's hashmix XORs its input with the current constant,
    advances the constant by ``mult``, then multiplies by the new one,
    so call ``k`` uses constants ``k`` and ``k + 1`` — a sequence that
    depends only on how many calls came before, never on the data.
    """
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)
    constants = np.array(values, dtype=np.uint32)
    constants.flags.writeable = False
    return constants


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix: call ``k`` on column ``k`` of
    ``values`` (a single column broadcasts to one call per constant
    pair).  ``constants`` holds one more entry than there are calls.
    """
    out = values ^ constants[:-1]
    out *= constants[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word with a hashed word."""
    out = _MIX_MULT_L * x
    out -= _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def _entropy_words(entropy: Sequence[int]) -> list[int]:
    """An entropy sequence as uint32 words, the way SeedSequence
    coerces it: each int splits into little-endian 32-bit words (zero
    is one word), in order."""
    words: list[int] = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def pcg64_seed_states(
    entropies: Sequence[Sequence[int]],
) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(list(entropy))`` for
    every entropy, derived together.

    Each step of numpy's derivation runs over the whole batch at once:
    the SeedSequence pool mix (entropy shorter than the pool is padded
    with zeros, exactly as the hash runs out; rows with fewer words
    skip the later mixing steps), ``generate_state(4, uint64)`` and the
    PCG64 ``srandom`` seeding step, in 128-bit Python integers.
    """
    words = [_entropy_words(entropy) for entropy in entropies]
    lengths = np.array([len(row) for row in words], dtype=np.int64)
    width = max(_POOL_SIZE, int(lengths.max(initial=0)))
    table = np.array(
        [row + [0] * (width - len(row)) for row in words],
        dtype=np.uint32,
    ).reshape(len(words), width)
    # One hashmix call per pool word, per ordered pair of pool words
    # and per (later word, pool word) pair: width * pool size calls.
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width + 1)

    # Fill the pool with the first words (zeros once entropy runs out).
    pool = _hashmix(table[:, :_POOL_SIZE], constants[: _POOL_SIZE + 1])
    call = _POOL_SIZE
    # Mix every pool word into every other one.
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(
            pool[:, src, None], constants[call : call + _POOL_SIZE]
        )
        pool[:, dst] = _mix(pool[:, dst], hashed)
        call += _POOL_SIZE - 1
    # Mix each remaining entropy word into every pool word.
    for src in range(_POOL_SIZE, width):
        hashed = _hashmix(
            table[:, src, None], constants[call : call + _POOL_SIZE + 1]
        )
        pool = np.where((lengths > src)[:, None], _mix(pool, hashed), pool)
        call += _POOL_SIZE

    state = _hashmix(
        pool[:, _CYCLE],
        _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS + 1),
    ).astype(np.uint64)
    # Little-endian word pairs -> four uint64 words per row.
    state = state[:, 0::2] | (state[:, 1::2] << np.uint64(32))

    seeds: list[tuple[int, int]] = []
    for high_state, low_state, high_seq, low_seq in state.tolist():
        inc = (((high_seq << 64) | low_seq) << 1 | 1) & _MASK128
        initstate = (high_state << 64) | low_state
        # srandom: state = 0; step; state += initstate; step.
        seeds.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


def seeded_generators(
    entropies: Iterable[Sequence[int]],
) -> Iterator[np.random.Generator]:
    """Yield, per entropy, a generator in exactly the state
    ``np.random.default_rng(list(entropy))`` starts in.

    One :class:`numpy.random.Generator` is reused and reset for every
    entropy, so each yielded generator is valid only until the next
    one is drawn.  States are derived a chunk of entropies at a time,
    so a large batch holds no batch-sized temporaries; a negative
    entropy int raises :class:`ValueError` (as numpy does) when its
    chunk is derived.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    # The state setter copies the values, so one document serves all.
    words = {"state": 0, "inc": 0}
    document = {
        "bit_generator": "PCG64",
        "state": words,
        "has_uint32": 0,
        "uinteger": 0,
    }
    entropies = iter(entropies)
    while chunk := list(itertools.islice(entropies, _SEED_CHUNK)):
        for words["state"], words["inc"] in pcg64_seed_states(chunk):
            bit_generator.state = document
            yield generator
