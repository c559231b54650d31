"""k-dimensional tensor wavefront patterns (Helal et al., arXiv 2311.17530).

A k-D DP recurrence (3-way MSA is the classic) addresses cells by index
tuples ``(x_0, ..., x_{k-1})`` and depends on cells at fixed negative
offsets — the k-D generalization of the 2-D stencils. Cells of equal
index *sum* form antidiagonal hyperplanes, the wavefronts that execute
in parallel.

:class:`TensorWavefrontDag` runs such a recurrence on the unchanged 2-D
runtime by embedding the tensor through a
:class:`~repro.core.domain.TensorDomain`: the leading ``k-1`` axes
flatten into layout rows, the last axis becomes columns, and every
dependency edge is translated cell-to-cell through the bijection. The
distributions, tiling, shm planes, and recovery never see a k-tuple.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.core.domain import TensorDomain
from repro.errors import PatternError
from repro.util.validation import require

__all__ = ["TensorWavefrontDag", "dense_corner_offsets"]


def dense_corner_offsets(ndim: int) -> Tuple[Tuple[int, ...], ...]:
    """All ``2^k - 1`` nonzero offsets in ``{0, -1}^k``.

    The dense alignment neighborhood: every way to advance a non-empty
    subset of the axes by one. For ``k = 2`` this is the classic
    diagonal stencil ``(-1, -1), (-1, 0), (0, -1)``.
    """
    require(ndim >= 1, "ndim must be >= 1", PatternError)
    out: List[Tuple[int, ...]] = []
    for mask in range(1, 1 << ndim):
        out.append(tuple(-(mask >> a & 1) for a in range(ndim - 1, -1, -1)))
    return tuple(sorted(out))


class TensorWavefrontDag(Dag):
    """A fixed-offset stencil over a dense k-D tensor.

    ``shape`` is the tensor extent per axis; ``offsets`` the dependency
    offsets, each a k-tuple that is componentwise ``<= 0`` and not all
    zero — which proves acyclicity outright, because every edge strictly
    decreases the index sum, so hyperplane order is a topological order.
    Offsets reaching outside the tensor are dropped (boundary cells
    become seeds), exactly like the 2-D stencils.

    >>> dag = TensorWavefrontDag((2, 2, 2))
    >>> (dag.height, dag.width)
    (4, 2)
    >>> corner = dag.domain.to_cell((1, 1, 1))
    >>> sorted(dag.domain.from_cell(d.i, d.j) for d in dag.get_dependency(*corner))
    [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]
    """

    def __init__(
        self,
        shape: Sequence[int],
        offsets: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        dom = TensorDomain(shape)
        offs = (
            dense_corner_offsets(dom.ndim)
            if offsets is None
            else tuple(tuple(int(x) for x in o) for o in offsets)
        )
        require(len(offs) > 0, "TensorWavefrontDag needs offsets", PatternError)
        require(
            len(set(offs)) == len(offs),
            "duplicate tensor offsets",
            PatternError,
        )
        for o in offs:
            require(
                len(o) == dom.ndim,
                f"offset {o} has {len(o)} components, tensor has {dom.ndim}",
                PatternError,
            )
            require(
                all(x <= 0 for x in o) and any(x < 0 for x in o),
                f"tensor offset {o} must be componentwise <= 0 and nonzero "
                "(every edge must strictly decrease the index sum)",
                PatternError,
            )
        self.offsets_nd: Tuple[Tuple[int, ...], ...] = offs
        self.shape = dom.shape
        h, w = dom.layout_shape
        super().__init__(h, w, domain=dom)

    # -- dependency structure -------------------------------------------------
    def _neighbors(self, i: int, j: int, sign: int) -> List[VertexId]:
        dom: TensorDomain = self.domain  # type: ignore[assignment]
        idx = dom.from_cell(i, j)
        out: List[VertexId] = []
        for off in self.offsets_nd:
            nidx = tuple(x + sign * d for x, d in zip(idx, off))
            if all(0 <= x < n for x, n in zip(nidx, self.shape)):
                out.append(VertexId(*dom.to_cell(nidx)))
        return out

    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        return self._neighbors(i, j, +1)

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        return self._neighbors(i, j, -1)
