"""A bounded, thread-safe least-recently-used map (the plan memos)."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["LRU"]

V = TypeVar("V")


class LRU(OrderedDict):
    """At most ``maxsize`` entries, the least recently used dropped first.

    Every read and write takes the map's one lock: a server runs jobs on
    threads, and so does the threaded engine. ``hits`` / ``misses`` count
    :meth:`lookup` outcomes.

    >>> memo = LRU(2)
    >>> [memo.lookup(k, lambda: k * 10) for k in (1, 2, 1, 3)]
    [10, 20, 10, 30]
    >>> list(memo), memo.hits, memo.misses
    ([1, 3], 1, 3)
    """

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize
        self.lock = threading.Lock()
        self.hits = self.misses = 0

    def lookup(self, key: Hashable, make: Callable[[], V]) -> V:
        """The value under ``key``, made by ``make()`` on a miss. ``make``
        runs outside the lock (it may be slow); a concurrent miss on the
        same key makes it twice and keeps the last."""
        with self.lock:
            if key in self:
                self.hits += 1
                self.move_to_end(key)
                return self[key]
            self.misses += 1
        value = make()
        with self.lock:
            self[key] = value
            while len(self) > self.maxsize:
                self.popitem(last=False)
        return value
