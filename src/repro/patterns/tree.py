"""Bottom-up tree DP patterns (Bateni et al., arXiv 1809.03685).

Tree DP computes a value per node from its children's values — the
dependency DAG *is* the tree, directed child → parent. The pattern runs
on the unchanged 2-D runtime by embedding nodes through a
:class:`~repro.core.domain.TreeDomain`: layout row = node height (leaves
at row 0), column = rank within the height level, padding cells
inactive. The bottom-up sweep is then a row-major wavefront, and the
distributions, tiling, recovery and the mp owner map operate on plain
cells.

For locality, pair the pattern with the domain's subtree/heavy-path
partition::

    dom = TreeDomain(parents)
    dag = TreeDag(dom)
    cfg = DPX10Config(custom_dist=dom.make_dist)

which keeps child → parent edges place-local except across the few
light-edge cuts between post-order chunks. Recovery rebuilds the same
partition over the survivors automatically.
"""

from __future__ import annotations

from typing import List, Union

from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.core.domain import TreeDomain

__all__ = ["TreeDag"]


class TreeDag(Dag):
    """Child → parent dependencies over a rooted tree.

    Accepts a :class:`~repro.core.domain.TreeDomain` or a raw parent
    vector (``parents[v]`` = parent of node ``v``, root = ``-1``).

    >>> dag = TreeDag([-1, 0, 0, 1, 1])
    >>> root_cell = dag.domain.to_cell(0)
    >>> sorted(dag.domain.from_cell(d.i, d.j) for d in dag.get_dependency(*root_cell))
    [1, 2]
    >>> dag.get_anti_dependency(*dag.domain.to_cell(3)) == [VertexId(*dag.domain.to_cell(1))]
    True
    """

    def __init__(self, tree: Union[TreeDomain, list, tuple, dict]) -> None:
        dom = tree if isinstance(tree, TreeDomain) else TreeDomain(tree)
        h, w = dom.layout_shape
        super().__init__(h, w, domain=dom)

    def is_active(self, i: int, j: int) -> bool:
        return self.domain.cell_active(i, j)

    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        dom: TreeDomain = self.domain  # type: ignore[assignment]
        if not dom.cell_active(i, j):
            return []
        v = dom.from_cell(i, j)
        return [VertexId(*dom.to_cell(c)) for c in dom.children(v)]

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        dom: TreeDomain = self.domain  # type: ignore[assignment]
        if not dom.cell_active(i, j):
            return []
        p = dom.parent(dom.from_cell(i, j))
        return [] if p < 0 else [VertexId(*dom.to_cell(p))]

    def active_cells_in_rect(self, r0: int, r1: int, c0: int, c1: int) -> int:
        dom: TreeDomain = self.domain  # type: ignore[assignment]
        total = 0
        for h in range(max(0, r0), min(self.height, r1)):
            width = len(dom.level(h))
            total += max(0, min(width, c1) - max(0, c0))
        return total
