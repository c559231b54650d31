"""Runtime dependency-race sanitizer (``DPX10Config(sanitize=True)``).

The dynamic complement of the AST lint: whatever static analysis cannot
resolve (data-dependent indices, smuggled store references, result-view
reads from inside ``compute()``), the sanitizer catches at the moment it
happens. While a sanitized ``compute(i, j, ...)`` runs, a thread-local
*guard* records the cell and its declared dependency set; every plane
(:class:`~repro.core.plane.PlaneResults`) or remote-cache read that
executes under the guard is cross-checked against that set, and an
undeclared access raises :class:`~repro.errors.DependencyRaceError`
naming the read cell, the offending offset, the owning place and the
executing place (finding code DP301).

The hook is two loads and a truth test when no guard is active (module
global ``_active_guards``), so an unsanitized run pays nothing
measurable; sanitized runs add one frozenset build plus one membership
probe per read.

This module deliberately imports nothing from ``repro.core`` — the plane
and cache import it, not the other way around.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Optional, Tuple

from repro.errors import DependencyRaceError

__all__ = ["compute_guard", "check_read", "guard_active"]

Coord = Tuple[int, int]

#: number of live guards across all threads; the fast-path filter the
#: store/cache hooks read before doing any real work
_active_guards = 0
_count_lock = threading.Lock()
_tls = threading.local()


class _Guard:
    __slots__ = ("cell", "declared", "exec_place")

    def __init__(self, cell: Coord, declared: frozenset, exec_place: int) -> None:
        self.cell = cell
        self.declared = declared
        self.exec_place = exec_place


def guard_active() -> bool:
    """Whether any sanitizer guard is live (cheap global check)."""
    return _active_guards > 0


@contextmanager
def compute_guard(cell: Coord, declared: Iterable[Coord], exec_place: int):
    """Declare that ``compute(*cell)`` runs on this thread until exit."""
    global _active_guards
    guard = _Guard(cell, frozenset(declared), exec_place)
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(guard)
    with _count_lock:
        _active_guards += 1
    try:
        yield guard
    finally:
        stack.pop()
        with _count_lock:
            _active_guards -= 1


def check_read(
    i: int, j: int, owner_place: Optional[int] = None, source: str = "tile plane"
) -> None:
    """Validate a read of cell ``(i, j)`` against the active guard, if any.

    Called by :class:`~repro.core.plane.PlaneResults` and the remote cache when
    :func:`guard_active` is true. Reads outside any ``compute()`` (the
    framework's own dependency gathering, ``app_finished`` backtracking)
    carry no thread-local guard and pass through untouched.
    """
    stack = getattr(_tls, "stack", None)
    if not stack:
        return
    guard: _Guard = stack[-1]
    if (i, j) in guard.declared:
        return
    ci, cj = guard.cell
    owner = f"place {owner_place}" if owner_place is not None else "unknown place"
    raise DependencyRaceError(
        code="DP301",
        cell=(i, j),
        reader=guard.cell,
        offset=(i - ci, j - cj),
        owner_place=owner_place,
        exec_place=guard.exec_place,
        message=(
            f"[DP301] undeclared dependency read: compute({ci}, {cj}) "
            f"running at place {guard.exec_place} read cell ({i}, {j}) "
            f"(offset ({i - ci:+d}, {j - cj:+d})) from the {source} of "
            f"{owner}, but get_dependency({ci}, {cj}) declares only "
            f"{sorted(guard.declared)}. Undeclared reads race with the "
            "scheduler: the cell may be unfinished or stale on other "
            "distributions. Declare the dependency in the DAG pattern."
        ),
    )


def race_on_unfinished(
    cell: Coord, dep: Coord, owner_place: int, exec_place: int
) -> DependencyRaceError:
    """Build the DP302 diagnostic: a *declared* dependency was gathered
    before it finished — the signature of an under-declared
    anti-dependency (the indegree never accounted for the edge)."""
    ci, cj = cell
    di, dj = dep
    return DependencyRaceError(
        code="DP302",
        cell=dep,
        reader=cell,
        offset=(di - ci, dj - cj),
        owner_place=owner_place,
        exec_place=exec_place,
        message=(
            f"[DP302] dependency race: compute({ci}, {cj}) at place "
            f"{exec_place} was scheduled before its declared dependency "
            f"({di}, {dj}) (offset ({di - ci:+d}, {dj - cj:+d}), homed at "
            f"place {owner_place}) finished. The pattern's "
            "get_anti_dependency under-declares this edge, so the "
            "indegree bookkeeping released the cell too early."
        ),
    )
