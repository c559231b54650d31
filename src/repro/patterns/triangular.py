"""Pattern (h): the triangular interval-split pattern — matrix chain class.

The classic 2D/1D interval DP (Algorithm 3.2 of the paper): for ``i < j``,

.. code-block:: none

    D[i,j] = w(i,j) + min_{i < k <= j} { D[i,k-1] + D[k,j] }

so ``(i, j)`` depends on its whole row segment ``(i, k)`` for
``i <= k < j`` and column segment ``(k, j)`` for ``i < k <= j``. Only the
upper triangle ``i <= j`` is active; the diagonal seeds with
``D[i,i] = 0``. Dependency counts grow with interval length, which is why
the paper defers efficient 2D/1D support to future work.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.patterns.base import register_pattern

__all__ = ["TriangularDag"]


@register_pattern("triangular")
class TriangularDag(Dag):
    """Interval-split recurrence over ``x[i..j]`` (matrix chain et al.)."""

    def is_active(self, i: int, j: int) -> bool:
        return i <= j

    def active_cells_in_rect(self, r0: int, r1: int, c0: int, c1: int) -> int:
        from repro.patterns.interval import _upper_triangle_count

        return _upper_triangle_count(r0, r1, c0, c1)

    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        if i >= j:
            return []
        row = [VertexId(i, k) for k in range(i, j)]
        col = [VertexId(k, j) for k in range(i + 1, j + 1)]
        return row + col

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        # inverse of get_dependency: (i, j) feeds every longer interval
        # extending it to the right on its row, or upward on its column
        right = [VertexId(i, k) for k in range(j + 1, self.width)]
        up = [VertexId(k, j) for k in range(0, i)]
        return right + up

    def tile_deps(self, ti: int, tj: int, nti: int, ntj: int) -> List[Tuple[int, int]]:
        if ti > tj:
            return []
        row = [(ti, k) for k in range(ti, tj)]
        col = [(k, tj) for k in range(ti + 1, tj + 1)]
        return row + col

    def tile_boundary_fraction(self, tile_h: int, tile_w: int) -> float:
        # each tile consumes full row/column segments of its predecessors
        return 1.0
