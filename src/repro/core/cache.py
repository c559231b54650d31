"""The per-worker remote-vertex cache (paper section VI-C).

"To reduce the overhead of data transmission, the worker maintains a cache
list that caches recently transmitted vertices. For efficiency, the cache
list is implemented using a static array and its size can be specified by
the user. We adopt a simple FIFO replacement mechanism..."

Faithful to that: a fixed-capacity ring buffer (the "static array") with
FIFO eviction — *not* LRU: a hit does not refresh an entry's position,
matching the paper's rationale that vertices in a regular DP DAG are only
needed for a short window.
"""

from __future__ import annotations

import threading
from typing import Generic, List, Optional, Tuple, TypeVar

from repro.analysis import sanitize as _sanitize
from repro.util.validation import require

__all__ = ["RemoteCache"]

K = TypeVar("K")
V = TypeVar("V")

_MISS = object()


class RemoteCache(Generic[K, V]):
    """Fixed-size FIFO cache of remote vertex values.

    ``capacity == 0`` disables caching (every lookup misses, puts are
    dropped), which is how Figure 12's overhead experiment runs.
    """

    def __init__(self, capacity: int) -> None:
        require(capacity >= 0, f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._keys: List[Optional[K]] = [None] * capacity
        self._map: dict[K, V] = {}
        self._next = 0  # ring-buffer write cursor
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: K) -> Tuple[bool, Optional[V]]:
        """``(True, value)`` on hit; ``(False, None)`` on miss."""
        if (
            _sanitize._active_guards
            and isinstance(key, tuple)
            and len(key) == 2
        ):
            # sanitized run: cached vertex reads issued during a
            # compute() are checked like store reads
            _sanitize.check_read(key[0], key[1], source="remote cache")
        with self._lock:
            value = self._map.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return False, None
            self.hits += 1
            return True, value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        """Insert, evicting the oldest entry when full (FIFO)."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._map:
                self._map[key] = value  # refresh value, keep FIFO position
                return
            old = self._keys[self._next]
            if old is not None:
                del self._map[old]
            self._keys[self._next] = key
            self._map[key] = value
            self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._map)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._map

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._keys = [None] * self.capacity
            self._map.clear()
            self._next = 0
