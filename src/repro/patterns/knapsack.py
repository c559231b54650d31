"""The 0/1 Knapsack custom DAG pattern (paper Figures 8 and 9).

The paper uses Knapsack to demonstrate writing a *custom* pattern: extend
``Dag`` and implement ``get_dependency`` / ``get_anti_dependency`` from
the recurrence

.. code-block:: none

    m(i,j) = m(i-1,j)                                  if w_i > j
           = max(m(i-1,j), m(i-1, j-w_i) + v_i)        if w_i <= j

Row ``i`` covers "items up to i" (0..n_items) and column ``j`` is the
capacity used (0..W), so the matrix is ``(n_items+1) x (W+1)`` and row 0
is the zero-indegree seed row.

Unlike the stencil patterns, the second dependency ``(i-1, j-w_i)`` jumps
a data-dependent distance left — the "nondeterministic dependencies" the
paper blames for 0/1KP's weaker speedup (more cross-place traffic under a
row/column splicing, Figure 10(d)).

Note on fidelity: the paper's Figure 9 ``getAntiDependency`` omits the
``(i+1, j + w_{i+1})`` edge for row 0 even though row 1 cells do depend on
row 0 through it; we implement the exact inverse relation (required for
the indegree bookkeeping to terminate) rather than reproducing that
listing bug.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.errors import PatternError
from repro.util.validation import require

__all__ = ["KnapsackDag"]


class KnapsackDag(Dag):
    """Custom pattern for 0/1 Knapsack with item weights ``weights``.

    ``weights[k]`` is the weight of item ``k+1`` (the item considered when
    moving from row ``k`` to row ``k+1``), matching the paper's
    ``Knapsack.weight(i-1)`` indexing. Weights must be strictly positive
    integers, as the paper assumes.
    """

    def __init__(self, weights: Sequence[int], capacity: int) -> None:
        require(capacity >= 0, f"capacity must be >= 0, got {capacity}", PatternError)
        require(len(weights) >= 1, "need at least one item", PatternError)
        require(
            all(isinstance(w, (int,)) or hasattr(w, "__index__") for w in weights),
            "weights must be integers",
            PatternError,
        )
        ws = [int(w) for w in weights]
        require(
            all(w >= 1 for w in ws),
            "weights must be strictly positive integers",
            PatternError,
        )
        self.weights = tuple(ws)
        self.capacity = capacity
        super().__init__(height=len(ws) + 1, width=capacity + 1)

    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        if i == 0:
            return []
        w = self.weights[i - 1]
        deps = [VertexId(i - 1, j)]
        if w <= j:
            deps.append(VertexId(i - 1, j - w))
        return deps

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        if i == self.height - 1:
            return []
        w = self.weights[i]  # weight of the item considered by row i+1
        anti = [VertexId(i + 1, j)]
        if j + w <= self.capacity:
            anti.append(VertexId(i + 1, j + w))
        return anti

    # -- tile-level structure for the cluster simulator ---------------------------
    def tile_deps(self, ti: int, tj: int, nti: int, ntj: int) -> List[Tuple[int, int]]:
        """Tile ``(ti, tj)`` reads the previous tile row back to the
        heaviest item's reach — the data-dependent fan-in that gives 0/1KP
        its extra communication."""
        if ti == 0:
            return []
        tile_w = -(-self.width // ntj)  # ceil
        reach = -(-max(self.weights) // tile_w)
        lo = max(0, tj - reach)
        return [(ti - 1, k) for k in range(lo, tj + 1)]

    def tile_boundary_fraction(self, tile_h: int, tile_w: int) -> float:
        # one boundary row per tile, but scattered reads reduce cache reuse;
        # the simulator's cost model layers the knapsack surcharge on top
        return min(1.0, 1.0 / tile_h + 1.0 / tile_w)
