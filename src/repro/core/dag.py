"""The ``Dag`` base class (paper Figure 3).

A DAG pattern subclasses :class:`Dag` and implements ``get_dependency`` /
``get_anti_dependency``: the first lists the vertices that must complete
before ``(i, j)``; the second lists the vertices whose indegree drops when
``(i, j)`` finishes. The two must be exact inverses of each other over the
active cells — :meth:`Dag.validate` checks this (and acyclicity) for small
DAGs, which is how custom patterns are debugged.

Vertices can be *inactive* (``is_active`` returns ``False``): the
Refinements section allows initialization to "set the unneeded vertices as
finished", which is how triangular DP matrices (LPS, matrix chain) skip
their unused half.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.core.api import Vertex, VertexId
from repro.dist.region import Region2D
from repro.errors import DPX10Error, PatternError
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.domain import IndexDomain

__all__ = ["Dag", "ResultView", "VALIDATE_ENUMERATION_THRESHOLD"]

#: Cell count above which :meth:`Dag.validate` first tries the O(#offsets)
#: symbolic stencil verifier (repro.analysis.symbolic) instead of the
#: exhaustive O(cells x deps) enumeration. 65_536 cells (256 x 256) keeps
#: enumeration under ~100 ms on commodity hardware; beyond that the
#: enumeration cost dominates run setup for stencils whose acyclicity is
#: provable from the offset set alone. Non-stencil patterns, stencils
#: with overridden dependency methods, and degenerate shapes (an offset
#: magnitude >= the matrix dimension) always fall back to enumeration.
VALIDATE_ENUMERATION_THRESHOLD = 65_536

T = TypeVar("T")


class ResultView(Generic[T]):
    """Read access to computed vertex values, bound to a Dag after a run."""

    def __init__(self, getter, finished_checker, bulk_getter=None) -> None:
        self._get = getter
        self._finished = finished_checker
        self._bulk = bulk_getter

    def get(self, i: int, j: int) -> T:
        return self._get(i, j)

    def is_finished(self, i: int, j: int) -> bool:
        return self._finished(i, j)

    def as_array(self, fill: object, dtype: object):
        """The whole matrix in one vectorized gather, or ``None``.

        Runtimes that keep values in arrays supply ``bulk_getter`` so
        :meth:`Dag.to_array` skips the per-cell loop; ``None`` means the
        caller must fall back to :meth:`get`.
        """
        return self._bulk(fill, dtype) if self._bulk is not None else None


class Dag(Generic[T]):
    """Abstract DAG over a ``height x width`` vertex matrix.

    The matrix is the *layout*: every vertex is addressed by a 2-D cell
    ``(i, j)`` of a rectangular region, which is what the distributions,
    tiling, shm planes and recovery partition. Patterns whose natural
    index space is not a matrix (trees, k-D tensors) pass an
    :class:`~repro.core.domain.IndexDomain` mapping their native indices
    onto layout cells; the default is the identity
    :class:`~repro.core.domain.GridDomain`, so existing 2-D patterns are
    unchanged. Error messages and traces name cells through the domain
    (``describe_cell``), e.g. ``node 7`` for a tree vertex.
    """

    def __init__(
        self,
        height: int,
        width: int,
        domain: Optional["IndexDomain"] = None,
    ) -> None:
        require(height >= 1 and width >= 1, f"DAG must be at least 1x1, got {height}x{width}")
        self.height = height
        self.width = width
        self._domain: Optional["IndexDomain"] = domain
        self._results: Optional[ResultView[T]] = None

    @property
    def domain(self) -> "IndexDomain":
        """The index domain this pattern maps over (default: the grid)."""
        if self._domain is None:
            from repro.core.domain import GridDomain

            self._domain = GridDomain(self.height, self.width)
        return self._domain

    def describe_cell(self, i: int, j: int) -> str:
        """Name a cell in domain terms (grid tuple, tensor index, node id)."""
        if not self.contains(i, j):
            return f"({i}, {j})"
        return self.domain.describe_cell(i, j)

    # -- to implement in subclasses -------------------------------------------
    def get_dependency(self, i: int, j: int) -> List[VertexId]:
        """Vertices that must complete before ``(i, j)`` can run."""
        raise NotImplementedError

    def get_anti_dependency(self, i: int, j: int) -> List[VertexId]:
        """Vertices whose indegree is decremented when ``(i, j)`` finishes."""
        raise NotImplementedError

    def is_active(self, i: int, j: int) -> bool:
        """Whether ``(i, j)`` participates in the computation (default yes)."""
        return True

    # -- geometry ---------------------------------------------------------------
    @property
    def region(self) -> Region2D:
        return Region2D.of_shape(self.height, self.width)

    @property
    def size(self) -> int:
        return self.height * self.width

    def contains(self, i: int, j: int) -> bool:
        return 0 <= i < self.height and 0 <= j < self.width

    def active_cells(self) -> Sequence[Tuple[int, int]]:
        return [(i, j) for i, j in self.region if self.is_active(i, j)]

    def active_cells_in_rect(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Active cells inside ``[r0, r1) x [c0, c1)``.

        The default (dense pattern) is the rectangle's area. Shaped
        patterns override with a closed form so the cluster simulator can
        size tiles without walking cells.
        """
        return max(0, r1 - r0) * max(0, c1 - c0)

    def is_active_array(self, rows, cols):
        """Vectorized ``is_active`` over coordinate arrays, or ``None``.

        Returning ``None`` (the default) tells callers to fall back to the
        scalar method; shaped patterns override with a numpy expression so
        bulk initialization never loops per cell.
        """
        return None

    def bulk_indegrees(self, rows, cols):
        """Vectorized initial indegrees for the given cells, or ``None``.

        ``None`` (the default) means "compute per cell via
        ``get_dependency``". Stencil patterns override with closed-form
        numpy arithmetic — the difference between O(cells) numpy ops and
        O(cells x deps) Python calls at store-build time.
        """
        return None

    # -- tile-granular coarsening ---------------------------------------------------
    def coarsen(self, tile_h: int, tile_w: int) -> "Dag":
        """Derive the tile-level DAG for ``(tile_h, tile_w)`` blocking.

        Tile ``(ti, tj)`` covers cells ``[ti*tile_h, (ti+1)*tile_h) x
        [tj*tile_w, (tj+1)*tile_w)`` (clipped at the matrix edge) and
        depends on every other tile containing a dependency of one of its
        cells — the cell-level edges hoisted to tile granularity. For
        stencil patterns the tile DAG is derived symbolically from the
        offset set and proved acyclic by the ranking-vector verifier;
        irregular patterns are coarsened by enumeration and Kahn-checked.
        Raises :class:`~repro.errors.PatternError` when the coarsened
        graph would contain a cycle (tiling is unsound for that pattern
        and tile shape).

        >>> from repro.patterns.diagonal import DiagonalDag
        >>> tiled = DiagonalDag(6, 6).coarsen(3, 3)
        >>> (tiled.height, tiled.width)
        (2, 2)
        >>> sorted((d.i, d.j) for d in tiled.get_dependency(1, 1))
        [(0, 0), (0, 1), (1, 0)]
        >>> DiagonalDag(6, 6).coarsen(1, 1).size  # degenerate: one cell per tile
        36
        """
        from repro.core.tiling import coarsen

        return coarsen(self, tile_h, tile_w)

    # -- results (bound by the runtime after execution) ---------------------------
    def bind_results(self, view: ResultView[T]) -> None:
        self._results = view

    def __getstate__(self) -> dict:
        # bound results are this process's view of its plane: they do not
        # travel (an mp place binds its own)
        return dict(self.__dict__, _results=None)

    def get_vertex(self, i: int, j: int) -> Vertex[T]:
        """The computed vertex ``(i, j)`` — valid once the run finished."""
        if self._results is None:
            raise DPX10Error(
                "dag is not bound to results yet; call DPX10Runtime.run() first"
            )
        return Vertex(i, j, self._results.get(i, j))

    def to_array(self, fill: object = 0, dtype: object = None) -> "object":
        """The full result matrix as a numpy array (after a run).

        Inactive cells take ``fill``. Handy for whole-matrix comparison
        against serial oracles and for post-processing. Where every cell
        is finished and ``dtype`` is the plane's own, this may be a
        read-only view of the run's plane: copy it to write.
        """
        import numpy as np

        if self._results is not None:
            fast = self._results.as_array(fill, dtype)
            if fast is not None:
                return fast
        out = np.full((self.height, self.width), fill, dtype=dtype or object)
        for i in range(self.height):
            for j in range(self.width):
                if self.is_active(i, j):
                    out[i, j] = self.get_vertex(i, j).get_result()
        return out

    def render_stencil(self, i: Optional[int] = None, j: Optional[int] = None) -> str:
        """ASCII picture of a cell's dependencies (docs / CLI aid).

        Draws the neighbourhood of cell ``(i, j)`` (the matrix centre by
        default): ``@`` the cell itself, ``o`` its dependencies, ``.``
        other active cells, a blank for inactive ones.
        """
        ci = self.height // 2 if i is None else i
        cj = self.width // 2 if j is None else j
        if i is None and j is None and not self.get_dependency(ci, cj):
            # the centre is a seed (e.g. an interval diagonal): show a more
            # illustrative nearby cell instead
            for cand_i, cand_j in ((ci - 1, cj + 1), (ci + 1, cj + 1), (ci, cj + 1)):
                if (
                    self.contains(cand_i, cand_j)
                    and self.is_active(cand_i, cand_j)
                    and self.get_dependency(cand_i, cand_j)
                ):
                    ci, cj = cand_i, cand_j
                    break
        deps = {(d.i, d.j) for d in self.get_dependency(ci, cj)}
        radius = 3
        lines = []
        for r in range(max(0, ci - radius), min(self.height, ci + radius + 1)):
            row = []
            for c in range(max(0, cj - radius), min(self.width, cj + radius + 1)):
                if (r, c) == (ci, cj):
                    row.append("@")
                elif (r, c) in deps:
                    row.append("o")
                elif self.is_active(r, c):
                    row.append(".")
                else:
                    row.append(" ")
            lines.append(" ".join(row))
        return "\n".join(lines)

    # -- structural validation -----------------------------------------------------
    def validate(self) -> None:
        """Check pattern invariants exhaustively (small DAGs only).

        Verifies that for every active cell (a) all dependencies are
        in-bounds, active, distinct and not self-referential, (b)
        ``get_anti_dependency`` is the exact inverse of ``get_dependency``,
        and (c) the graph is acyclic and fully schedulable (Kahn's
        algorithm consumes every active cell).

        Above :data:`VALIDATE_ENUMERATION_THRESHOLD` cells, pure stencil
        patterns are instead proved correct symbolically from their offset
        set (see :func:`repro.analysis.symbolic.try_symbolic_validate`),
        making validation O(#offsets) rather than O(cells x deps).
        """
        if self.size > VALIDATE_ENUMERATION_THRESHOLD:
            # local import: repro.analysis.symbolic lazily imports the
            # stencil base class, which imports this module
            from repro.analysis.symbolic import try_symbolic_validate

            if try_symbolic_validate(self):
                return

        active = set()
        for i, j in self.region:
            if self.is_active(i, j):
                active.add((i, j))

        # error messages name cells through the domain ("node 7" for a tree
        # vertex, "(1, 2, 0)" for a tensor index) instead of raw row/col
        name = self.describe_cell
        deps = {}
        for i, j in active:
            dep_list = self.get_dependency(i, j)
            seen = set()
            for d in dep_list:
                require(
                    self.contains(d.i, d.j),
                    f"dependency {name(d.i, d.j)} of {name(i, j)} is out of bounds",
                    PatternError,
                )
                require(
                    (d.i, d.j) != (i, j),
                    f"{name(i, j)} depends on itself",
                    PatternError,
                )
                require(
                    (d.i, d.j) in active,
                    f"{name(i, j)} depends on inactive cell {name(d.i, d.j)}",
                    PatternError,
                )
                require(
                    (d.i, d.j) not in seen,
                    f"{name(i, j)} lists dependency {name(d.i, d.j)} twice",
                    PatternError,
                )
                seen.add((d.i, d.j))
            deps[(i, j)] = seen

        # anti-dependency must be the exact inverse relation
        anti = {}
        for i, j in active:
            a_list = self.get_anti_dependency(i, j)
            a_set = set()
            for a in a_list:
                require(
                    self.contains(a.i, a.j) and (a.i, a.j) in active,
                    f"anti-dependency {name(a.i, a.j)} of {name(i, j)} is invalid",
                    PatternError,
                )
                require(
                    (a.i, a.j) not in a_set,
                    f"{name(i, j)} lists anti-dependency {name(a.i, a.j)} twice",
                    PatternError,
                )
                a_set.add((a.i, a.j))
            anti[(i, j)] = a_set
        for v in active:
            for d in deps[v]:
                require(
                    v in anti[d],
                    f"{name(*d)} -> {name(*v)} edge missing from "
                    f"get_anti_dependency({name(*d)})",
                    PatternError,
                )
        for v in active:
            for a in anti[v]:
                require(
                    v in deps[a],
                    f"get_anti_dependency({name(*v)}) lists {name(*a)}, "
                    f"but {name(*a)} does not depend on {name(*v)}",
                    PatternError,
                )

        # acyclicity / schedulability via Kahn's algorithm
        indegree = {v: len(deps[v]) for v in active}
        ready = [v for v, d in indegree.items() if d == 0]
        require(
            bool(ready) or not active,
            "no zero-indegree vertex: the pattern has a cycle",
            PatternError,
        )
        done = 0
        while ready:
            v = ready.pop()
            done += 1
            for a in anti[v]:
                indegree[a] -= 1
                if indegree[a] == 0:
                    ready.append(a)
        require(
            done == len(active),
            f"only {done} of {len(active)} vertices schedulable: cycle detected",
            PatternError,
        )
