"""Pattern plumbing: the stencil base class and the pattern registry.

Most DP dependency structures are *stencils*: vertex ``(i, j)`` depends on
``(i + di, j + dj)`` for a fixed offset set. :class:`StencilDag` turns an
offset list into a complete pattern — dependencies, their exact-inverse
anti-dependencies, and the tile-level DAG the cluster simulator runs on —
so each built-in pattern is just a named offset list.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, Tuple, Type

from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.errors import PatternError
from repro.util.validation import require

__all__ = ["StencilDag", "PATTERNS", "register_pattern", "get_pattern"]

Offset = Tuple[int, int]

#: registry of pattern name -> Dag subclass (filled by register_pattern)
PATTERNS: Dict[str, Type[Dag]] = {}


def register_pattern(name: str):
    """Class decorator adding a pattern to the library registry.

    Re-registering the *same* class under its existing name is a no-op,
    and re-registering a fresh definition of the same class (matching
    module and qualified name — the module-reload case) refreshes the
    registry to the newest definition. Registering a genuinely different
    class under an existing name is still an error.
    """

    def wrap(cls: Type[Dag]) -> Type[Dag]:
        prev = PATTERNS.get(name)
        if prev is not None and prev is not cls:
            require(
                prev.__module__ == cls.__module__
                and prev.__qualname__ == cls.__qualname__,
                f"pattern {name!r} already registered to "
                f"{prev.__module__}.{prev.__qualname__}",
                PatternError,
            )
        PATTERNS[name] = cls
        cls.pattern_name = name  # type: ignore[attr-defined]
        return cls

    return wrap


def get_pattern(name: str) -> Type[Dag]:
    """Look up a pattern class by its registry name."""
    if name not in PATTERNS:
        hint = ""
        close = difflib.get_close_matches(name, PATTERNS, n=1)
        if close:
            hint = f"; did you mean {close[0]!r}?"
        raise PatternError(
            f"unknown pattern {name!r}{hint} known: {sorted(PATTERNS)}"
        )
    return PATTERNS[name]


class StencilDag(Dag):
    """A pattern defined by a fixed dependency offset set.

    Subclasses set ``offsets``: ``(di, dj)`` meaning ``(i, j)`` depends on
    ``(i + di, j + dj)``. Offsets falling outside the matrix (or on
    inactive cells, for shaped patterns overriding ``is_active``) are
    dropped, which is what makes border cells zero-indegree seeds.
    """

    #: dependency offsets; override in subclasses
    offsets: Tuple[Offset, ...] = ()

    def __init__(self, height: int, width: int) -> None:
        super().__init__(height, width)
        require(len(self.offsets) > 0, f"{type(self).__name__} has no offsets", PatternError)
        require(
            all(o != (0, 0) for o in self.offsets),
            "a stencil cannot include (0, 0)",
            PatternError,
        )
        require(
            len(set(self.offsets)) == len(self.offsets),
            "duplicate stencil offsets",
            PatternError,
        )

    def _neighbors(self, i: int, j: int, sign: int) -> List[VertexId]:
        out: List[VertexId] = []
        for di, dj in self.offsets:
            ni, nj = i + sign * di, j + sign * dj
            if self.contains(ni, nj) and self.is_active(ni, nj):
                out.append(VertexId(ni, nj))
        return out

    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        return self._neighbors(i, j, +1)

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        # the inverse relation of a stencil is the negated stencil
        return self._neighbors(i, j, -1)

    # -- vectorized initialization -----------------------------------------------
    def is_active_array(self, rows, cols):
        """Dense stencils: everything is active (shaped subclasses override)."""
        import numpy as np

        # only claim the fast path when is_active was not overridden by a
        # subclass that forgot the array version
        if type(self).is_active is StencilDag.is_active:
            return np.ones(len(rows), dtype=bool)
        return None

    def bulk_indegrees(self, rows, cols):
        """Closed-form indegrees: count in-bounds, active stencil offsets."""
        import numpy as np

        rows = np.asarray(rows)
        cols = np.asarray(cols)
        active_here = self.is_active_array(rows, cols)
        if active_here is None:
            return None
        indeg = np.zeros(len(rows), dtype=np.int32)
        for di, dj in self.offsets:
            ni = rows + di
            nj = cols + dj
            ok = (ni >= 0) & (ni < self.height) & (nj >= 0) & (nj < self.width)
            dep_active = self.is_active_array(ni, nj)
            if dep_active is None:
                return None
            indeg += (ok & dep_active).astype(np.int32)
        indeg[~active_here] = 0
        return indeg

    # -- tile-level structure for the cluster simulator ---------------------------
    def tile_deps(self, ti: int, tj: int, nti: int, ntj: int) -> List[Tuple[int, int]]:
        """Dependencies between tiles when the matrix is blocked.

        For a stencil the tile DAG is the sign pattern of the stencil:
        tile ``(ti, tj)`` depends on the neighbouring tiles in each
        distinct offset direction.
        """
        dirs = {
            (0 if di == 0 else (1 if di > 0 else -1), 0 if dj == 0 else (1 if dj > 0 else -1))
            for di, dj in self.offsets
        }
        out = []
        for di, dj in sorted(dirs):
            ni, nj = ti + di, tj + dj
            if 0 <= ni < nti and 0 <= nj < ntj:
                out.append((ni, nj))
        return out

    #: fraction of a tile's cells whose dependencies cross the tile border
    #: in each direction — used by the simulator's communication model; a
    #: stencil needs one boundary row/column per direction
    def tile_boundary_fraction(self, tile_h: int, tile_w: int) -> float:
        rows = any(di != 0 for di, _ in self.offsets)
        cols = any(dj != 0 for _, dj in self.offsets)
        frac = 0.0
        if rows:
            frac += 1.0 / tile_h
        if cols:
            frac += 1.0 / tile_w
        return min(1.0, frac)
