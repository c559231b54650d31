"""Shared-memory segment lifecycle for the zero-copy data plane.

The mp engine backs its value/finished planes (see
:mod:`repro.core.plane`) with ``multiprocessing.shared_memory`` segments
so that place processes read owned cells and halo strips as NumPy views
instead of pickled pipe payloads. Everything about segment *lifetime* lives here:

* :class:`ShmArena` — creates named segments, hands out NumPy views, and
  owns close/unlink. Only the creating process unlinks (a forked child
  that inherited the arena object merely closes its mappings), and an
  ``atexit`` hook closes any arena leaked by an abnormal exit path.
* :func:`attach_array` — the worker-process side: attach an existing
  segment by name. Worker processes are children of the creating master,
  so they share its ``resource_tracker``: the attach-side registration
  is a set no-op there and the creator's ``unlink`` balances it — which
  is why, unlike cross-tree attachments, no tracker unregister dance is
  needed, and a SIGKILLed master still gets its segments reaped by the
  tracker at shutdown.
* :func:`leaked_segments` — the leak detector tests assert against: every
  segment name carries the ``dpx10-`` prefix, so a scan of ``/dev/shm``
  after a run proves nothing was left behind.

``shm_supported()`` actually round-trips a tiny segment once (import
success alone does not prove ``/dev/shm`` is writable) and caches the
answer; every shm opt-in falls back to the pickled pipe transport when it
returns False.
"""

from __future__ import annotations

import atexit
import os
import secrets
import weakref
from typing import Any, List, Optional, Tuple

import numpy as np

__all__ = [
    "SEGMENT_PREFIX",
    "ShmArena",
    "attach_array",
    "detach_all",
    "leaked_segments",
    "shm_supported",
]

#: every DPX10 segment name starts with this, so the leak detector can
#: tell our segments from anything else living in /dev/shm
SEGMENT_PREFIX = "dpx10-"

_SHM_DIR = "/dev/shm"

_supported: Optional[bool] = None


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def shm_supported() -> bool:
    """Whether shared-memory segments actually work on this platform.

    Round-trips one tiny create/attach/unlink and caches the verdict —
    a failed probe (no ``/dev/shm``, sealed sandbox, exotic platform)
    turns every shm opt-in into a clean fallback, never an error.
    """
    global _supported
    if _supported is not None:
        return _supported
    try:
        shared_memory = _shared_memory()
        seg = shared_memory.SharedMemory(
            name=_segment_name("probe"), create=True, size=16
        )
        try:
            seg.buf[0] = 42
            ok = seg.buf[0] == 42
        finally:
            seg.close()
            seg.unlink()
        _supported = bool(ok)
    except Exception:
        _supported = False
    return _supported


def _segment_name(token: str) -> str:
    """A collision-free segment name: prefix + pid + random token."""
    return f"{SEGMENT_PREFIX}{os.getpid()}-{token}-{secrets.token_hex(4)}"


#: arenas not yet closed, for the atexit sweep (weak: a collected arena
#: already ran its finalizer-free close through normal control flow)
_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def _atexit_sweep() -> None:  # pragma: no cover - interpreter shutdown
    for arena in list(_LIVE_ARENAS):
        arena.close()


atexit.register(_atexit_sweep)


class ShmArena:
    """Owner of a set of shared-memory segments and their NumPy views.

    The process that constructs the arena is the *creator*: only it
    unlinks. ``close()`` is idempotent and safe to call from a forked
    child that inherited the object — the child merely drops its
    mappings. Attachments made through :meth:`attach` are closed but
    never unlinked (their creator does that).
    """

    def __init__(self) -> None:
        self._creator_pid = os.getpid()
        self._created: List[Any] = []  # SharedMemory objects we created
        self._attached: List[Any] = []  # SharedMemory objects we attached
        self._closed = False
        _LIVE_ARENAS.add(self)

    # -- creation ---------------------------------------------------------------
    def ndarray(
        self, shape: Tuple[int, ...], dtype: Any, token: str = "seg"
    ) -> np.ndarray:
        """A zero-filled array backed by a fresh shared segment."""
        shared_memory = _shared_memory()
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dt.itemsize)
        seg = shared_memory.SharedMemory(
            name=_segment_name(token), create=True, size=nbytes
        )
        self._created.append(seg)
        # fresh POSIX segments are zero pages: no explicit fill needed,
        # which is what lets "never written" read as the dtype's zero
        return np.ndarray(shape, dtype=dt, buffer=seg.buf)

    def create(
        self, shape: Tuple[int, ...], dtype: Any, token: str = "seg"
    ) -> Tuple[np.ndarray, str]:
        """Like :meth:`ndarray`, but also return the segment name (for
        shipping to workers that will :func:`attach_array` it)."""
        array = self.ndarray(shape, dtype, token)
        return array, self._created[-1].name

    def attach(self, name: str, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        """Attach an existing segment (worker side) as a NumPy view."""
        shared_memory = _shared_memory()
        seg = shared_memory.SharedMemory(name=name)
        self._attached.append(seg)
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)

    # -- introspection ----------------------------------------------------------
    @property
    def bytes_mapped(self) -> int:
        """Total bytes of live segments created or attached by this arena."""
        if self._closed:
            return 0
        return sum(seg.size for seg in self._created + self._attached)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- teardown ---------------------------------------------------------------
    def close(self) -> None:
        """Drop every mapping; unlink created segments (creator only).

        Idempotent. A forked child calling this (directly or via the
        atexit sweep) closes its inherited mappings but leaves the
        segments on disk for the creator to unlink.
        """
        if self._closed:
            return
        self._closed = True
        unlink = os.getpid() == self._creator_pid
        for seg in self._attached:
            try:
                seg.close()
            except Exception:  # pragma: no cover - already torn down
                pass
        for seg in self._created:
            try:
                seg.close()
            except Exception:  # pragma: no cover - already torn down
                pass
            if unlink:
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
                except Exception:  # pragma: no cover - platform quirks
                    pass
        self._attached.clear()
        self._created.clear()
        _LIVE_ARENAS.discard(self)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- standalone attach (worker processes) -----------------------------------------
_PROCESS_ATTACHMENTS: List[Any] = []


def attach_array(name: str, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
    """Attach a named segment as an array, tracked process-wide.

    Worker processes use this instead of carrying an arena: the mapping
    is registered in a module list and dropped by :func:`detach_all`
    (or, failing that, by process exit — an attachment can never leak a
    segment, only the creator's unlink matters).
    """
    shared_memory = _shared_memory()
    seg = shared_memory.SharedMemory(name=name)
    _PROCESS_ATTACHMENTS.append(seg)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)


def detach_all() -> None:
    """Close every mapping made through :func:`attach_array`."""
    for seg in _PROCESS_ATTACHMENTS:
        try:
            seg.close()
        except Exception:  # pragma: no cover - torn-down buffers
            pass
    _PROCESS_ATTACHMENTS.clear()


# -- leak detection ----------------------------------------------------------------
def leaked_segments() -> List[str]:
    """DPX10 segments still present in ``/dev/shm``.

    The leak detector the tests assert with: after a run (including
    chaos-killed runs) this must be empty. Returns ``[]`` on platforms
    without a scannable ``/dev/shm`` — there the tests that depend on
    scanning skip via :func:`shm_supported`.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))
