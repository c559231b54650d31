"""The warm place pool: pre-forked workers and pre-mapped shm segments.

One-shot ``run()`` pays a fixed setup tax per request: fork ``nplaces``
processes, create the plane segments, tear it all down. The job server
amortizes that tax across requests by keeping both resources warm here:

* :class:`PlacePool` — a bounded set of *interchangeable* pre-forked
  place processes (:class:`~repro.core.mp_engine._PlaceProc` handles).
  A run leases ``n`` of them keyed ``0..n-1``; the init envelope's
  trailing place-id field relabels each worker to the logical place it
  plays for that run, so any worker can play any place. Released
  workers are ``reset`` (plane, shm attachments and instruments
  cleared) and go back to the idle set; dead workers are retired and
  their capacity refilled lazily.
* **Pooled segments** — shared-memory plane segments keyed by byte
  size. :meth:`PlacePool.segment_lease` returns an object duck-typed to
  :class:`~repro.core.shm.ShmArena` (``create`` / ``bytes_mapped`` /
  ``close``), so the mp engine's place group swaps it in without caring. A leased
  segment is zero-filled before reuse, restoring the data plane's
  "never written reads as zero" invariant; ``close()`` returns segments
  to the free list instead of unlinking.
* :meth:`PlacePool.take_spare` — the mid-run restart path: recovery
  hands in the corpse and receives a warm replacement, which keeps the
  job's distribution intact (only the dead place's finished units
  recompute). This is what lets a served job survive a place kill that
  would be fatal (place 0) or force a re-homing pass in one-shot mode.

The pool is thread-safe: the server runs many jobs concurrently from
executor threads, and ``lease`` blocks (all-or-nothing, so concurrent
leases cannot deadlock on partial grabs) until enough workers are idle
or capacity allows forking more.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import weakref
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.mp_engine import _PlaceProc
from repro.core.shm import _segment_name, shm_supported
from repro.errors import DPX10Error
from repro.util.logging import get_logger

__all__ = ["PlacePool", "PoolStats"]

logger = get_logger("serve.pool")

#: default cap on pooled segment bytes kept on the free list; beyond it
#: the least-recently-released segments are unlinked
_DEFAULT_SEGMENT_BYTES = 256 * 1024 * 1024

_LIVE_POOLS: "weakref.WeakSet[PlacePool]" = weakref.WeakSet()


def _atexit_sweep() -> None:  # pragma: no cover - interpreter shutdown
    for pool in list(_LIVE_POOLS):
        pool.close()


atexit.register(_atexit_sweep)


class PoolStats:
    """A point-in-time snapshot of pool occupancy and lifetime counters."""

    def __init__(
        self,
        *,
        capacity: int,
        idle: int,
        leased: int,
        forks: int,
        leases: int,
        releases: int,
        retired: int,
        restarts_served: int,
        segment_bytes_free: int,
        segment_bytes_total: int,
        segment_leases: int,
        segment_creates: int,
    ) -> None:
        self.capacity = capacity
        self.idle = idle
        self.leased = leased
        self.forks = forks
        self.leases = leases
        self.releases = releases
        self.retired = retired
        self.restarts_served = restarts_served
        self.segment_bytes_free = segment_bytes_free
        self.segment_bytes_total = segment_bytes_total
        self.segment_leases = segment_leases
        self.segment_creates = segment_creates

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class _PooledSegment:
    """One shared-memory segment owned by the pool, reused across jobs."""

    __slots__ = ("shm", "nbytes")

    def __init__(self, shm_obj, nbytes: int) -> None:
        self.shm = shm_obj
        self.nbytes = nbytes

    @property
    def name(self) -> str:
        return self.shm.name


class _SegmentLease:
    """One run's view of the pooled segments; duck-types ``ShmArena``.

    ``create`` hands out zero-filled plane arrays backed by pooled
    segments; ``close`` returns the segments to the pool's free list
    (never unlinks — the pool owns segment lifetime).
    """

    def __init__(self, pool: "PlacePool") -> None:
        self._pool = pool
        self._held: List[_PooledSegment] = []
        self._closed = False

    def create(
        self, shape: Tuple[int, ...], dtype: Any, token: str = "seg"
    ) -> Tuple[np.ndarray, str]:
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dt.itemsize)
        seg = self._pool._lease_segment(nbytes)
        self._held.append(seg)
        arr = np.ndarray(shape, dtype=dt, buffer=seg.shm.buf)
        # a reused segment holds the previous job's bytes: restore the
        # plane invariant that "never written reads as zero"
        arr.fill(0)
        return arr, seg.name

    @property
    def bytes_mapped(self) -> int:
        return sum(s.nbytes for s in self._held)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        held, self._held = self._held, []
        self._pool._release_segments(held)


class PlacePool:
    """A bounded pool of warm place processes and plane segments.

    ``capacity`` bounds *live* worker processes (idle + leased). With
    ``prewarm=True`` (default) the whole capacity is forked up front so
    the first request is already warm; otherwise workers are forked on
    demand up to the cap.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        *,
        prewarm: bool = True,
        max_segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if capacity is None:
            # at least the API's default nplaces: place processes are
            # master-driven and block on recv, so modest oversubscription
            # of small hosts beats refusing default-shaped jobs
            capacity = max(4, os.cpu_count() or 4)
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.max_segment_bytes = max_segment_bytes
        self._ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        if shm_supported():
            # start the shm resource tracker BEFORE forking workers, so
            # every pooled worker inherits the same tracker and its
            # attach-side registrations land in the set the creator's
            # unlink balances (see repro.core.shm's fork-tree contract);
            # forked-too-early workers would each spawn a private
            # tracker that warns about segments it never saw unlinked
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        self._cond = threading.Condition()
        self._idle: List[_PlaceProc] = []
        self._leased: "weakref.WeakSet[_PlaceProc]" = weakref.WeakSet()
        self._nlive = 0
        self._serial = 0
        self._closed = False
        # segments: free list keyed by size, LRU across all sizes
        self._free_segments: Dict[int, List[_PooledSegment]] = {}
        self._free_order: List[_PooledSegment] = []
        self._segment_bytes_total = 0
        # lifetime counters (surfaced on /metrics via PoolStats)
        self._forks = 0
        self._leases = 0
        self._releases = 0
        self._retired = 0
        self._restarts_served = 0
        self._segment_leases = 0
        self._segment_creates = 0
        _LIVE_POOLS.add(self)
        if prewarm:
            self.prewarm()

    # -- worker processes -------------------------------------------------------
    def _fork_locked(self) -> _PlaceProc:
        self._serial += 1
        self._forks += 1
        self._nlive += 1
        return _PlaceProc(self._serial, self._ctx)

    def prewarm(self, n: Optional[int] = None) -> int:
        """Fork idle workers up to ``n`` (default: full capacity).

        Returns how many were actually forked.
        """
        forked = 0
        with self._cond:
            target = self.capacity if n is None else min(n, self.capacity)
            while self._nlive < target:
                self._idle.append(self._fork_locked())
                forked += 1
            self._cond.notify_all()
        return forked

    def lease(
        self, n: int, timeout: Optional[float] = None
    ) -> Dict[int, _PlaceProc]:
        """Lease ``n`` workers, keyed ``0..n-1``; blocks until available.

        All-or-nothing: the call waits until ``n`` workers can be taken
        in one atomic step (idle, or within forking headroom), so two
        concurrent leases can never deadlock holding partial sets.
        """
        if n < 1:
            raise ValueError(f"lease size must be >= 1, got {n}")
        if n > self.capacity:
            raise ValueError(
                f"lease of {n} workers exceeds pool capacity {self.capacity}"
            )
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._closed
                or len(self._idle) + (self.capacity - self._nlive) >= n,
                timeout=timeout,
            )
            if self._closed:
                raise DPX10Error("place pool is closed")
            if not ok:
                raise TimeoutError(
                    f"no {n} pool workers available within {timeout}s"
                )
            taken: List[_PlaceProc] = []
            while self._idle and len(taken) < n:
                taken.append(self._idle.pop())
            while len(taken) < n:
                taken.append(self._fork_locked())
            self._leases += 1
            for proc in taken:
                self._leased.add(proc)
        return {i: proc for i, proc in enumerate(taken)}

    def take_spare(self, corpse: Optional[_PlaceProc] = None) -> Optional[_PlaceProc]:
        """A warm replacement for a mid-run death; retires the corpse.

        Returns ``None`` only when the pool is closed. Retiring the
        corpse frees its capacity slot, so a replacement can always be
        forked even with no idle spare (cold, but the job still lives).
        """
        with self._cond:
            if corpse is not None:
                self._retire_locked(corpse)
            if self._closed:
                return None
            if self._idle:
                spare = self._idle.pop()
            else:
                if self._nlive >= self.capacity:
                    return None
                spare = self._fork_locked()
            self._leased.add(spare)
            self._restarts_served += 1
            return spare

    def release(self, procs: List[_PlaceProc]) -> None:
        """Return leased workers: reset the living, retire the dead."""
        for proc in procs:
            ok = proc.alive
            if ok:
                try:
                    proc.request(("reset",))
                    proc.bind_run(None)
                except DPX10Error:
                    ok = False
            with self._cond:
                self._leased.discard(proc)
                if ok and not self._closed:
                    self._idle.append(proc)
                else:
                    self._retire_locked(proc)
                self._releases += 1
                self._cond.notify_all()
        if self._closed:
            return

    def _retire_locked(self, proc: _PlaceProc) -> None:
        self._leased.discard(proc)
        try:
            self._idle.remove(proc)
        except ValueError:
            pass
        self._nlive = max(0, self._nlive - 1)
        self._retired += 1
        try:
            if proc.alive:
                proc.stop()
            else:
                proc.proc.join(timeout=1.0)
        except Exception:  # pragma: no cover - teardown races
            pass

    # -- segments ---------------------------------------------------------------
    def segment_lease(self) -> _SegmentLease:
        """A fresh per-run lease over the pooled plane segments."""
        return _SegmentLease(self)

    def _lease_segment(self, nbytes: int) -> _PooledSegment:
        with self._cond:
            if self._closed:
                raise DPX10Error("place pool is closed")
            self._segment_leases += 1
            free = self._free_segments.get(nbytes)
            if free:
                seg = free.pop()
                self._free_order.remove(seg)
                return seg
            if not shm_supported():  # pragma: no cover - platform guard
                raise DPX10Error("shared memory unsupported on this platform")
            from multiprocessing import shared_memory

            self._segment_creates += 1
            seg = _PooledSegment(
                shared_memory.SharedMemory(
                    name=_segment_name("pool"), create=True, size=nbytes
                ),
                nbytes,
            )
            self._segment_bytes_total += nbytes
            return seg

    def _release_segments(self, segs: List[_PooledSegment]) -> None:
        with self._cond:
            if self._closed:
                for seg in segs:
                    self._destroy_segment(seg)
                return
            for seg in segs:
                self._free_segments.setdefault(seg.nbytes, []).append(seg)
                self._free_order.append(seg)
            # LRU-bound the free list: unlink the stalest segments once
            # the pool holds more plane bytes than the configured cap
            free_bytes = sum(s.nbytes for s in self._free_order)
            while self._free_order and free_bytes > self.max_segment_bytes:
                stale = self._free_order.pop(0)
                self._free_segments[stale.nbytes].remove(stale)
                free_bytes -= stale.nbytes
                self._segment_bytes_total -= stale.nbytes
                self._destroy_segment(stale)

    @staticmethod
    def _destroy_segment(seg: _PooledSegment) -> None:
        try:
            seg.shm.close()
        except BufferError:  # stale views exist; memory frees with them
            pass
        except Exception:  # pragma: no cover - platform quirks
            pass
        try:
            seg.shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - platform quirks
            pass

    # -- introspection / teardown -----------------------------------------------
    def stats(self) -> PoolStats:
        with self._cond:
            return PoolStats(
                capacity=self.capacity,
                idle=len(self._idle),
                leased=len(self._leased),
                forks=self._forks,
                leases=self._leases,
                releases=self._releases,
                retired=self._retired,
                restarts_served=self._restarts_served,
                segment_bytes_free=sum(s.nbytes for s in self._free_order),
                segment_bytes_total=self._segment_bytes_total,
                segment_leases=self._segment_leases,
                segment_creates=self._segment_creates,
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop every idle worker and unlink every pooled segment.

        Idempotent. Workers still leased at close time are stopped when
        their run releases them (``release`` retires instead of pooling
        once ``closed``).
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            segs, self._free_order = self._free_order, []
            self._free_segments.clear()
            self._cond.notify_all()
        for proc in idle:
            try:
                proc.stop()
            except Exception:  # pragma: no cover - teardown races
                pass
            self._nlive = max(0, self._nlive - 1)
        for seg in segs:
            self._destroy_segment(seg)
        _LIVE_POOLS.discard(self)

    def __enter__(self) -> "PlacePool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
