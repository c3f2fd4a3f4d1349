"""The batch seeder reproduces ``np.random.default_rng(list(entropy))``.

:func:`repro.detection.batch.seeded_generators` re-derives numpy's
SeedSequence -> PCG64 seeding vectorised over a batch.  numpy keeps
both streams stable (NEP 19); this property pins the equality, so any
drift — in numpy or in the re-derivation — fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.batch import pcg64_seed_states, seeded_generators

#: 1-10 ints per entropy, up to 70 bits: narrow words, multi-word ints
#: and zeros, mixed within one batch.
entropies = st.lists(
    st.lists(st.integers(0, 2**70 - 1), min_size=1, max_size=10),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(batch=entropies)
def test_seeded_generators_equal_default_rng(batch):
    count = 0
    for entropy, generator in zip(batch, seeded_generators(batch)):
        reference = np.random.default_rng(list(entropy))
        assert generator.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(
            generator.standard_normal(6), reference.standard_normal(6)
        )
        assert generator.integers(2**40) == reference.integers(2**40)
        count += 1
    assert count == len(batch)


@pytest.mark.parametrize(
    "entropy",
    [
        [0],
        [2**32 - 1],
        [2**32],
        [2**64 - 1, 0, 2**64],
        [7, 530, 1000, 2000, 1003, 17, 2],
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    ],
)
def test_word_boundaries(entropy):
    (generator,) = list(seeded_generators([entropy]))
    state = np.random.default_rng(entropy).bit_generator.state
    assert generator.bit_generator.state == state


def test_batches_larger_than_one_derivation_pass():
    batch = [(2017, 530, frame, camera) for frame in range(300)
             for camera in range(2)]
    states = [g.bit_generator.state["state"] for g in seeded_generators(batch)]
    expected = [
        np.random.default_rng(list(e)).bit_generator.state["state"]
        for e in batch
    ]
    assert states == expected


def test_negative_entropy_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng([3, -1])
    with pytest.raises(ValueError):
        list(seeded_generators([(1, 2), (3, -1)]))
    with pytest.raises(ValueError):
        pcg64_seed_states([(-5,)])


def test_empty_batch():
    assert pcg64_seed_states([]) == []
    assert list(seeded_generators([])) == []
