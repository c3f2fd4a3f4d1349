"""Content-keyed memoisation of array-valued computations.

The controller recomputes the same calibration artifacts over and
over: every recalibration interval it rebuilds each training item's
PCA subspace and the geodesic-flow factors against the incoming
feature stack, even though the training stacks never change.  An
:class:`ArrayCache` keys those results on a digest of the *contents*
of the input arrays (dtype, shape and bytes), so identical inputs —
whether the same object or a fresh equal copy — hit the cache, and
any change to the data transparently misses.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np


def array_token(array: np.ndarray) -> str:
    """Digest of an array's dtype, shape and raw contents.

    Two arrays get the same token iff they are element-wise identical
    with the same dtype and shape; the token is therefore a safe memo
    key for any deterministic function of the array.
    """
    a = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(a.dtype).encode())
    digest.update(str(a.shape).encode())
    digest.update(a.tobytes())
    return digest.hexdigest()


class ArrayCache:
    """LRU memo cache with hit/miss counters.

    Keys are arbitrary hashable tuples, typically built from
    :func:`array_token` digests plus scalar parameters.  Values are
    whatever the compute callback returns; callers must treat cached
    values as immutable (they are returned by reference).

    Attributes:
        hits: Number of :meth:`get_or_compute` calls served from the
            cache.
        misses: Number of calls that ran the compute callback.
        max_entries: Capacity; least-recently-used entries are evicted
            beyond it.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """The cached value for ``key``, computing it on first use."""
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._store[key] = value
            if len(self._store) > self.max_entries:
                self._store.popitem(last=False)
            return value
        self.hits += 1
        self._store.move_to_end(key)
        return value
