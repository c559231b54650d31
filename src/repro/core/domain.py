"""Index domains: the index spaces a DAG pattern maps over.

The paper's runtime addresses every vertex by a 2-D matrix cell
``(i, j)``. That is the right *storage and partitioning* layout — the
distributed array, tiling, shared-memory planes, and recovery all
operate on a rectangular region — but it is the wrong *programming*
model for DP problems whose natural index space is not a matrix:
bottom-up tree DP (Bateni et al., arXiv 1809.03685) and k-dimensional
tensor wavefronts such as 3-way MSA (Helal et al., arXiv 2311.17530).

An :class:`IndexDomain` separates the two concerns. It names a set of
*native indices* (grid cells, k-tuples, tree node ids) and a bijective
*layout embedding* of those indices into a canonical 2-D cell grid:

* ``to_cell(index) -> (i, j)`` / ``from_cell(i, j) -> index`` — the
  bijection between native indices and layout cells;
* ``layout_shape`` — the (height, width) of the embedding grid;
* ``cell_active(i, j)`` — whether a layout cell is the image of a
  native index (padding cells in ragged embeddings are inactive);
* ``describe_cell(i, j)`` — how to name a cell in error messages and
  traces, in domain terms ("node 7", "(2, 1, 3)") rather than row/col.

Everything below the pattern layer — distributions, the data plane, the
schedulers, recovery, the mp engine's owner map — keeps treating cells
as opaque ``(i, j)`` keys of a rectangular region, so partitioning,
tiling, kill-and-recover, and the shm data plane work unchanged on
every domain. :class:`GridDomain` is the identity embedding, which is
what makes the refactor bit-identical for all existing apps.

Three domains ship:

``GridDomain``
    The classic ``height x width`` matrix; identity embedding.

``TensorDomain``
    A dense k-D tensor ``shape = (n_0, ..., n_{k-1})``. The layout
    flattens the leading ``k-1`` axes mixed-radix into rows and keeps
    the last axis as columns, so a column band (the paper's default
    distribution) splits the tensor along its last axis. Antidiagonal
    *hyperplanes* (cells of equal index sum) are the wavefronts.

``TreeDomain``
    A rooted tree given as a parent vector. Layout row = node height
    (leaves at row 0, parent strictly above its children), column =
    rank within the height level, padding cells inactive. The
    bottom-up sweep is then literally a row-major wavefront.
    :meth:`TreeDomain.make_dist` partitions by contiguous post-order
    chunks (heavy child last), keeping subtrees and heavy paths
    place-local — plug it into ``DPX10Config(custom_dist=...)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.api import DPX10App, Vertex

__all__ = [
    "IndexDomain",
    "GridDomain",
    "TensorDomain",
    "TreeDomain",
    "DomainApp",
]

T = TypeVar("T")

Cell = Tuple[int, int]


class IndexDomain(ABC):
    """A set of native DP indices plus their 2-D layout embedding."""

    #: short name of the domain family ("grid" | "tensor" | "tree")
    kind: str = "abstract"

    # -- native index space ----------------------------------------------------
    @abstractmethod
    def indices(self) -> Iterator[object]:
        """All native indices, in layout (row-major cell) order."""

    @property
    @abstractmethod
    def nindices(self) -> int:
        """Number of native indices (== number of active layout cells)."""

    @abstractmethod
    def contains_index(self, index: object) -> bool:
        """Whether ``index`` is a native index of this domain."""

    # -- layout embedding ------------------------------------------------------
    @property
    @abstractmethod
    def layout_shape(self) -> Cell:
        """(height, width) of the canonical 2-D cell grid."""

    @abstractmethod
    def to_cell(self, index: object) -> Cell:
        """Layout cell of a native index (bijective with :meth:`from_cell`)."""

    @abstractmethod
    def from_cell(self, i: int, j: int) -> object:
        """Native index living at layout cell ``(i, j)``."""

    def cell_active(self, i: int, j: int) -> bool:
        """Whether layout cell ``(i, j)`` is the image of a native index."""
        return True

    def describe_cell(self, i: int, j: int) -> str:
        """Name a layout cell in domain terms, for errors and traces."""
        return f"({i}, {j})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        h, w = self.layout_shape
        return f"{type(self).__name__}(layout={h}x{w}, n={self.nindices})"


class GridDomain(IndexDomain):
    """The classic 2-D matrix: native indices *are* layout cells.

    >>> d = GridDomain(3, 4)
    >>> d.to_cell((2, 1)), d.from_cell(2, 1)
    ((2, 1), (2, 1))
    >>> d.nindices
    12
    """

    kind = "grid"

    def __init__(self, height: int, width: int) -> None:
        if height < 1 or width < 1:
            raise ValueError(
                f"GridDomain must be at least 1x1, got {height}x{width}"
            )
        self.height = height
        self.width = width

    def indices(self) -> Iterator[Cell]:
        for i in range(self.height):
            for j in range(self.width):
                yield (i, j)

    @property
    def nindices(self) -> int:
        return self.height * self.width

    def contains_index(self, index: object) -> bool:
        try:
            i, j = index  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        return 0 <= i < self.height and 0 <= j < self.width

    @property
    def layout_shape(self) -> Cell:
        return (self.height, self.width)

    def to_cell(self, index: object) -> Cell:
        i, j = index  # type: ignore[misc]
        return (int(i), int(j))

    def from_cell(self, i: int, j: int) -> Cell:
        return (i, j)

    # describe_cell: the inherited "(i, j)" wording IS the domain wording
    # here — existing error-message text stays byte-identical.


class TensorDomain(IndexDomain):
    """A dense k-dimensional tensor of shape ``(n_0, ..., n_{k-1})``.

    The layout embedding flattens the leading ``k-1`` axes mixed-radix
    into rows (axis 0 outermost) and keeps the last axis as columns:

    >>> d = TensorDomain((2, 3, 4))
    >>> d.layout_shape
    (6, 4)
    >>> d.to_cell((1, 2, 3))
    (5, 3)
    >>> d.from_cell(5, 3)
    (1, 2, 3)

    Every layout cell is active, so the embedding is a true bijection
    and block/cyclic distributions, tiling, and shm planes apply with
    no padding waste. A dimension of size 1 is legal (it degenerates
    that axis away); a dimension of size 0 — an empty domain — raises
    ``ValueError`` immediately rather than producing a run that hangs
    on zero vertices.
    """

    kind = "tensor"

    def __init__(self, shape: Sequence[int]) -> None:
        shape = tuple(int(n) for n in shape)
        if len(shape) < 1:
            raise ValueError("TensorDomain needs at least one dimension")
        for axis, n in enumerate(shape):
            if n < 1:
                raise ValueError(
                    f"TensorDomain dimension {axis} has size {n}: empty "
                    "domains are not allowed (every axis must be >= 1)"
                )
        self.shape = shape
        self.ndim = len(shape)
        # mixed-radix place values for the leading k-1 axes
        strides = [1] * (self.ndim - 1)
        for a in range(self.ndim - 3, -1, -1):
            strides[a] = strides[a + 1] * shape[a + 1]
        self._row_strides = tuple(strides)

    def indices(self) -> Iterator[Tuple[int, ...]]:
        import itertools

        yield from itertools.product(*(range(n) for n in self.shape))

    @property
    def nindices(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def contains_index(self, index: object) -> bool:
        try:
            idx = tuple(index)  # type: ignore[arg-type]
        except TypeError:
            return False
        if len(idx) != self.ndim:
            return False
        return all(0 <= x < n for x, n in zip(idx, self.shape))

    @property
    def layout_shape(self) -> Cell:
        rows = 1
        for d in self.shape[:-1]:
            rows *= d
        return (rows, self.shape[-1])

    def to_cell(self, index: object) -> Cell:
        idx = tuple(index)  # type: ignore[arg-type]
        row = 0
        for x, s in zip(idx[:-1], self._row_strides):
            row += int(x) * s
        return (row, int(idx[-1]))

    def from_cell(self, i: int, j: int) -> Tuple[int, ...]:
        out: List[int] = []
        rem = i
        for s in self._row_strides:
            out.append(rem // s)
            rem %= s
        out.append(j)
        return tuple(out)

    def describe_cell(self, i: int, j: int) -> str:
        return str(self.from_cell(i, j))


ParentSpec = Union[Sequence[int], Mapping[int, int]]


class TreeDomain(IndexDomain):
    """A rooted tree given as a parent vector; native indices are node ids.

    ``parents[v]`` is the parent of node ``v``; the single root has
    parent ``-1`` (``None`` is accepted too). Node ids must be the
    contiguous range ``0..n-1`` — a mapping with holes raises
    ``ValueError`` naming the missing ids, because a silent re-labeling
    would corrupt the caller's weights/values arrays.

    Layout: row = height of the node (leaves 0; a parent is strictly
    above all its children), column = the node's rank among its height
    level (sorted by id). Rows are ragged, so cells beyond a level's
    width are inactive padding. Bottom-up traversal is then a row-major
    wavefront and the paper's execution model applies unchanged.

    >>> t = TreeDomain([-1, 0, 0, 1, 1])   # root 0; 1,2 children; 3,4 leaves
    >>> t.height_of(0), t.height_of(1), t.height_of(3)
    (2, 1, 0)
    >>> t.to_cell(3)
    (0, 1)
    >>> t.children(0)
    (1, 2)
    """

    kind = "tree"

    def __init__(self, parents: ParentSpec) -> None:
        if isinstance(parents, Mapping):
            n = len(parents)
            missing = [v for v in range(n) if v not in parents]
            if missing:
                raise ValueError(
                    f"TreeDomain node ids must be contiguous 0..{n - 1}: "
                    f"missing {missing[:5]}{'...' if len(missing) > 5 else ''} "
                    f"(got ids {sorted(parents)[:8]}"
                    f"{'...' if n > 8 else ''})"
                )
            parent_vec = [parents[v] for v in range(n)]
        else:
            parent_vec = list(parents)
            n = len(parent_vec)
        if n < 1:
            raise ValueError("TreeDomain needs at least one node (empty domain)")

        norm: List[int] = []
        roots: List[int] = []
        for v, p in enumerate(parent_vec):
            if p is None or p == -1:
                norm.append(-1)
                roots.append(v)
                continue
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(
                    f"TreeDomain parent of node {v} must be an int (or -1/None "
                    f"for the root), got {p!r}"
                )
            if not 0 <= p < n:
                raise ValueError(
                    f"TreeDomain parent of node {v} is {p}, outside 0..{n - 1}"
                )
            if p == v:
                raise ValueError(f"TreeDomain node {v} is its own parent")
            norm.append(p)
        if len(roots) != 1:
            raise ValueError(
                f"TreeDomain needs exactly one root (parent -1), got "
                f"{len(roots)}: {roots[:5]}"
            )

        self.parents: Tuple[int, ...] = tuple(norm)
        self.n = n
        self.root = roots[0]

        kids: List[List[int]] = [[] for _ in range(n)]
        for v in range(n):
            p = self.parents[v]
            if p >= 0:
                kids[p].append(v)
        self._children: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(c) for c in kids
        )

        # depth-first reachability from the root; nodes the walk misses sit
        # on a parent cycle or in a second component — both invalid trees
        heights = [-1] * n
        order: List[int] = []
        stack = [self.root]
        visited = [False] * n
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            order.append(v)
            stack.extend(self._children[v])
        if len(order) != n:
            orphans = sorted(v for v in range(n) if not visited[v])
            raise ValueError(
                f"TreeDomain has {len(orphans)} node(s) unreachable from root "
                f"{self.root} (cycle or forest): {orphans[:5]}"
                f"{'...' if len(orphans) > 5 else ''}"
            )
        for v in reversed(order):  # children seen before their parent
            ch = self._children[v]
            heights[v] = 0 if not ch else 1 + max(heights[c] for c in ch)
        self._heights: Tuple[int, ...] = tuple(heights)

        # layout: row = height, col = rank within level (sorted by id)
        max_h = max(heights)
        levels: List[List[int]] = [[] for _ in range(max_h + 1)]
        for v in range(n):  # ascending id => deterministic rank
            levels[heights[v]].append(v)
        self._levels: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(lv) for lv in levels
        )
        self._cell_of: Dict[int, Cell] = {}
        self._node_at: Dict[Cell, int] = {}
        for h, lv in enumerate(levels):
            for rank, v in enumerate(lv):
                self._cell_of[v] = (h, rank)
                self._node_at[(h, rank)] = v
        self._layout_shape = (max_h + 1, max(len(lv) for lv in levels))

        # subtree sizes + post-order with the heavy child last, so a
        # contiguous post-order chunk is a union of whole subtrees hanging
        # off one heavy path — the subtree/heavy-path partition make_dist
        # chunks over.
        sizes = [1] * n
        for v in reversed(order):
            for c in self._children[v]:
                sizes[v] += sizes[c]
        self.subtree_sizes: Tuple[int, ...] = tuple(sizes)
        # post-order with the heavy child visited last: push heavy first so
        # it pops last (children pushed heaviest-first pop lightest-first)
        post: List[int] = []
        stack2: List[Tuple[int, bool]] = [(self.root, False)]
        while stack2:
            v, expanded = stack2.pop()
            if expanded:
                post.append(v)
                continue
            stack2.append((v, True))
            for c in sorted(
                self._children[v], key=lambda c: (sizes[c], c), reverse=True
            ):
                stack2.append((c, False))
        self.post_order: Tuple[int, ...] = tuple(post)

    # -- tree accessors --------------------------------------------------------
    def children(self, v: int) -> Tuple[int, ...]:
        return self._children[v]

    def parent(self, v: int) -> int:
        """Parent node id, or -1 for the root."""
        return self.parents[v]

    def height_of(self, v: int) -> int:
        return self._heights[v]

    def level(self, h: int) -> Tuple[int, ...]:
        """Node ids at height ``h``, in id order (== column order)."""
        return self._levels[h]

    # -- IndexDomain interface -------------------------------------------------
    def indices(self) -> Iterator[int]:
        for lv in self._levels:
            yield from lv

    @property
    def nindices(self) -> int:
        return self.n

    def contains_index(self, index: object) -> bool:
        return isinstance(index, int) and not isinstance(index, bool) and (
            0 <= index < self.n
        )

    @property
    def layout_shape(self) -> Cell:
        return self._layout_shape

    def to_cell(self, index: object) -> Cell:
        return self._cell_of[int(index)]  # type: ignore[arg-type]

    def from_cell(self, i: int, j: int) -> int:
        try:
            return self._node_at[(i, j)]
        except KeyError:
            raise KeyError(
                f"layout cell ({i}, {j}) is padding: level {i} has "
                f"{len(self._levels[i]) if 0 <= i < len(self._levels) else 0} "
                f"node(s)"
            ) from None

    def cell_active(self, i: int, j: int) -> bool:
        return (i, j) in self._node_at

    def describe_cell(self, i: int, j: int) -> str:
        v = self._node_at.get((i, j))
        return f"node {v}" if v is not None else f"padding cell ({i}, {j})"

    # -- partitioning ----------------------------------------------------------
    def make_dist(self, region, place_ids):
        """Subtree/heavy-path partition as a :class:`repro.dist.dist.Dist`.

        Chunks the heavy-child-last post-order into ``len(place_ids)``
        contiguous, cell-balanced ranges. Because the post-order keeps
        every subtree contiguous and walks each heavy path without
        interruption, a chunk boundary cuts only light edges — child →
        parent dependency traffic stays place-local except across those
        few cuts. Padding cells ride with place 0 (they are never
        computed). Signature matches ``DPX10Config(custom_dist=...)``
        and recovery rebuilds it over the survivor set automatically.
        """
        from repro.dist.dist import Dist

        ids = list(place_ids)
        nplaces = len(ids)
        owner_of_node: Dict[int, int] = {}
        base, extra = divmod(self.n, nplaces)
        pos = 0
        for k in range(nplaces):
            span = base + (1 if k < extra else 0)
            for v in self.post_order[pos : pos + span]:
                owner_of_node[v] = ids[k]
            pos += span

        node_at = self._node_at
        fallback = ids[0]

        def map_fn(i: int, j: int) -> int:
            v = node_at.get((i, j))
            return owner_of_node[v] if v is not None else fallback

        return Dist.custom(region, ids, map_fn)


class DomainApp(DPX10App[T], Generic[T]):
    """A :class:`~repro.core.api.DPX10App` written in native indices.

    The runtime hands ``compute()`` layout cells; this base class decodes
    them through the domain and dispatches to :meth:`compute_index`, so
    the recurrence reads like the math — keyed by node ids or k-tuples,
    never by layout rows/columns::

        class TreeSum(DomainApp[int]):
            def compute_index(self, node, deps):
                return self.weight[node] + sum(deps.values())

    ``deps`` maps each dependency's *native* index to its computed value.
    """

    def __init__(self, domain: IndexDomain) -> None:
        self.domain = domain

    def compute(self, i: int, j: int, vertices: Sequence["Vertex[T]"]) -> T:
        dom = self.domain
        deps = {dom.from_cell(v.i, v.j): v.get_result() for v in vertices}
        return self.compute_index(dom.from_cell(i, j), deps)

    def compute_index(self, index: object, deps: Dict[object, T]) -> T:
        """The DP recurrence in native index terms. Override me."""
        raise NotImplementedError
