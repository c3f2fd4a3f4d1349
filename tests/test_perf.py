"""The perf layer: ArrayCache and array_token."""

import numpy as np
import pytest

from repro.perf.cache import ArrayCache, array_token


class TestArrayToken:
    def test_equal_arrays_same_token(self, rng):
        a = rng.normal(size=(5, 7))
        b = a.copy()
        assert array_token(a) == array_token(b)

    def test_different_contents_differ(self, rng):
        a = rng.normal(size=(5, 7))
        b = a.copy()
        b[2, 3] += 1e-12
        assert array_token(a) != array_token(b)

    def test_shape_and_dtype_matter(self):
        flat = np.zeros(6)
        assert array_token(flat) != array_token(flat.reshape(2, 3))
        assert array_token(flat) != array_token(flat.astype(np.float32))

    def test_non_contiguous_ok(self, rng):
        a = rng.normal(size=(6, 6))
        assert array_token(a[:, ::2]) == array_token(a[:, ::2].copy())


class TestArrayCache:
    def test_hit_and_miss_counters(self):
        cache = ArrayCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
            assert value == 42
        assert len(calls) == 1
        assert cache.misses == 1
        assert cache.hits == 2
        assert cache.stats()["hit_rate"] == pytest.approx(2 / 3)

    def test_lru_eviction(self):
        cache = ArrayCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_clear_resets_counters(self):
        cache = ArrayCache()
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ArrayCache(max_entries=0)
