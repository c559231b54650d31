"""``/proc`` readers: process trees, CPU seconds, resident memory — and
the one process-wide switch the ledger flips, ``disable_thp``.

Stdlib only, so the driver can import it without paying for NumPy. The
ledger needs these from the *outside* of the program under test: CPU of
a whole server tree, the high-water RSS of any process in it, and — for
the clean-up checks that feed ``failed`` — who is still alive after a
workload said it had stopped.
"""

from __future__ import annotations

import ctypes
import os
import resource
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "alive",
    "descendants",
    "disable_thp",
    "is_resource_tracker",
    "own_cpu_seconds",
    "own_peak_rss_mb",
    "session_members",
    "status_mb",
    "survivors",
    "tree_cpu_seconds",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_THP_DISABLE = 41


def disable_thp() -> bool:
    """No transparent huge pages for this process and whatever it forks or
    executes from now on; whether the kernel took it.

    NumPy asks for huge pages (``madvise``) under every array of 4 MiB or
    more, and the kernel grants them or not depending on where the heap
    happens to sit, once per process. On this kind of box a granted one is
    the *slow* case for gathers along antidiagonals — ``sw_native`` 2048²
    0.44-0.60 s with them, 0.35-0.40 s without, six alternating pairs of
    fresh processes — and the cheap case for ``fork`` (fewer page-table
    entries to copy), so the mp workload's ``overhead_x`` read 1.9 or 3.1
    for a whole run depending on that grant.
    """
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` after the command name: state is field 0,
    ppid 1, pgrp 2, session 3, utime/stime/cutime/cstime 11..14."""
    try:
        with open(f"/proc/{pid}/stat", encoding="latin1") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _all_stats() -> Dict[int, List[str]]:
    out: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                out[int(entry)] = fields
    return out


def descendants(pid: int) -> List[int]:
    """Live pids below ``pid`` in the process tree (not ``pid`` itself)."""
    parent_of = {p: int(f[1]) for p, f in _all_stats().items()}
    out: List[int] = []
    frontier = [pid]
    while frontier:
        up = frontier.pop()
        kids = [p for p, pp in parent_of.items() if pp == up]
        out += kids
        frontier += kids
    return out


def session_members(sid: int) -> List[int]:
    """Live, un-reaped pids whose session id is ``sid``."""
    return [
        p for p, f in _all_stats().items() if int(f[3]) == sid and f[0] != "Z"
    ]


def is_resource_tracker(pid: int) -> bool:
    """multiprocessing's tracker outlives its parent by design: not an orphan."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" in fh.read()
    except OSError:
        return False


def alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def survivors(pids: Sequence[int], grace_s: float) -> List[int]:
    """Which of ``pids`` are still alive once ``grace_s`` has passed.

    Reaping can trail a clean stop by a scheduler tick, so poll; the
    resource tracker is exempt (it exits when its last client does).
    """
    deadline = time.monotonic() + grace_s
    while True:
        left = [p for p in pids if alive(p) and not is_resource_tracker(p)]
        if not left or time.monotonic() > deadline:
            return sorted(left)
        time.sleep(0.05)


def tree_cpu_seconds(pid: int) -> float:
    """user+sys CPU of ``pid`` (with its reaped children) and its live tree."""
    ticks = 0
    for p in [pid] + descendants(pid):
        fields = _stat_fields(p)
        if fields is not None:
            ticks += sum(int(x) for x in fields[11:15])
    return ticks / _CLK_TCK


def status_mb(pid: int, key: str) -> float:
    """``VmRSS`` / ``VmHWM`` of one process in MiB (0.0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="latin1") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def own_cpu_seconds() -> float:
    """user+sys CPU of this process and every child it has reaped so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def own_peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    return (
        max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        / 1024.0
    )
