"""Calibration-artifact caching: PCA subspaces and GFK factors.

A second calibration pass over unchanged feature stacks must be
served entirely from the content-keyed cache — identical arrays, zero
recomputation, a nonzero hit counter.
"""

import numpy as np
import pytest

from repro.core.calibration import (
    AlgorithmProfile,
    TrainingItem,
    TrainingLibrary,
)
from repro.domain_adaptation.gfk import geodesic_flow_kernel
from repro.domain_adaptation.pca import uncentered_basis
from repro.domain_adaptation.similarity import VideoComparator
from repro.perf.cache import ArrayCache


def _profile(algorithm: str = "HOG") -> AlgorithmProfile:
    return AlgorithmProfile(
        algorithm=algorithm,
        training_item="T",
        threshold=0.5,
        precision=0.8,
        recall=0.7,
        f_score=0.75,
        energy_per_frame=1.0,
        time_per_frame=0.1,
    )


class TestBasisCache:
    def test_uncentered_basis_cached(self, rng):
        cache = ArrayCache()
        data = rng.normal(size=(12, 40))
        first = uncentered_basis(data, 6, cache=cache)
        second = uncentered_basis(data.copy(), 6, cache=cache)
        assert second is first  # served by reference from the cache
        assert cache.hits == 1 and cache.misses == 1
        np.testing.assert_array_equal(
            first, uncentered_basis(data, 6)  # uncached ground truth
        )

    def test_different_dim_misses(self, rng):
        cache = ArrayCache()
        data = rng.normal(size=(12, 40))
        uncentered_basis(data, 6, cache=cache)
        uncentered_basis(data, 4, cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_training_item_subspace(self, rng):
        cache = ArrayCache()
        item = TrainingItem(
            name="T",
            profiles={"HOG": _profile()},
            features=rng.normal(size=(10, 30)),
        )
        a = item.subspace(5, cache=cache)
        b = item.subspace(5, cache=cache)
        assert b is a
        assert cache.hits == 1

    def test_featureless_item_raises(self):
        item = TrainingItem(name="T", profiles={"HOG": _profile()})
        with pytest.raises(ValueError, match="no feature stack"):
            item.subspace(5)

    def test_library_shares_cache(self, rng):
        library = TrainingLibrary()
        library.add(
            TrainingItem(
                name="T-a",
                profiles={"HOG": _profile()},
                features=rng.normal(size=(10, 30)),
            )
        )
        library.subspace("T-a", 5)
        library.subspace("T-a", 5)
        stats = library.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1


class TestGfkCache:
    def test_second_pass_hits_with_identical_factors(self, rng):
        cache = ArrayCache()
        x = np.linalg.qr(rng.normal(size=(50, 8)))[0]
        z = np.linalg.qr(rng.normal(size=(50, 8)))[0]
        first = geodesic_flow_kernel(x, z, cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        second = geodesic_flow_kernel(x.copy(), z.copy(), cache=cache)
        assert cache.hits == 1
        assert second is first
        np.testing.assert_array_equal(second.factor, first.factor)
        np.testing.assert_array_equal(second.core, first.core)

    def test_distinct_bases_miss(self, rng):
        cache = ArrayCache()
        x = np.linalg.qr(rng.normal(size=(50, 8)))[0]
        z = np.linalg.qr(rng.normal(size=(50, 8)))[0]
        w = np.linalg.qr(rng.normal(size=(50, 8)))[0]
        geodesic_flow_kernel(x, z, cache=cache)
        geodesic_flow_kernel(x, w, cache=cache)
        assert cache.misses == 2 and cache.hits == 0


class TestComparatorCaching:
    def _comparator(self, rng) -> tuple[VideoComparator, np.ndarray]:
        comparator = VideoComparator(subspace_dim=6)
        for name in ("T-a", "T-b"):
            comparator.add_training_video(
                name, rng.normal(size=(10, 60))
            )
        incoming = rng.normal(size=(8, 60))
        return comparator, incoming

    def test_second_calibration_pass_recomputes_nothing(self, rng):
        comparator, incoming = self._comparator(rng)
        first = comparator.similarities(incoming)
        misses_after_first = comparator.cache.misses
        assert misses_after_first > 0
        second = comparator.similarities(incoming)
        # Zero new GFK/PCA computations on the second pass: every
        # basis and kernel factor is served from the cache.
        assert comparator.cache.misses == misses_after_first
        assert comparator.cache.hits >= misses_after_first
        assert second == first

    def test_new_incoming_video_reuses_training_side(self, rng):
        comparator, incoming = self._comparator(rng)
        comparator.similarities(incoming)
        misses_after_first = comparator.cache.misses
        other = rng.normal(size=(8, 60))
        comparator.similarities(other)
        # The training bases (one per item) are reused; only the new
        # incoming basis and the new kernels (one per training item)
        # are computed.
        new_misses = comparator.cache.misses - misses_after_first
        assert new_misses == 1 + 2
        assert comparator.cache.hits > 0

    def test_cache_stats_exposed(self, rng):
        comparator, incoming = self._comparator(rng)
        comparator.similarities(incoming)
        stats = comparator.cache.stats()
        assert stats["misses"] > 0
