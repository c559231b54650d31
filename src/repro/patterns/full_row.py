"""Pattern (g): full previous-row dependency — simple 2D/1D recurrences.

``(i, j)`` depends on *every* cell of row ``i-1``: the shape of 2D/1D
recurrences like ``D[i,j] = min_k f(D[i-1,k])`` where the whole previous
stage is consulted. Row 0 seeds; each row is a barrier for the next. The
paper notes DPX10 "can also express the type of 2D/iD (i >= 1),
nonetheless, the performance is less than satisfactory" — the ablation
benchmark quantifies exactly that using this pattern.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.patterns.base import register_pattern

__all__ = ["FullRowDag"]


@register_pattern("full_row")
class FullRowDag(Dag):
    """2D/1D recurrence: ``D[i,j] = f(D[i-1, 0..width))``."""

    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        if i == 0:
            return []
        return [VertexId(i - 1, k) for k in range(self.width)]

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        if i == self.height - 1:
            return []
        return [VertexId(i + 1, k) for k in range(self.width)]

    def tile_deps(self, ti: int, tj: int, nti: int, ntj: int) -> List[Tuple[int, int]]:
        if ti == 0:
            return []
        return [(ti - 1, k) for k in range(ntj)]

    def tile_boundary_fraction(self, tile_h: int, tile_w: int) -> float:
        # every cell reads the whole previous row: the transferred volume
        # per tile is one full row band from each other tile column
        return 1.0 / tile_h
