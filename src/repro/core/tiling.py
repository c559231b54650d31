"""Tile-granular execution: coarsen the cell DAG, run whole tiles.

The per-vertex engine pays interpreter-level scheduling, indegree
bookkeeping and cache-lookup overhead for every cell. Blocked (tiled)
evaluation is the standard remedy: partition the matrix into
``tile_h x tile_w`` tiles, hoist the dependencies from cells to tiles
(Tang's nested-dataflow argument: a DP recurrence stays correct when a
sub-block waits for the union of its cells' dependencies), and stream the
tiles along the wavefront — Matsumae & Miyazaki's pipelined blocked GPU
DP, rendered on the DPX10 DAG-pattern abstraction.

Three layers live here (see docs/TILING.md for the full story):

* **Coarsening** — :func:`coarsen` derives a :class:`TiledDag` from any
  pattern. For stencils the tile-level offset set is computed in
  O(#offsets) by the clipping rule (each cell offset ``(di, dj)`` maps to
  the tile offsets ``[floor(di/th), ceil(di/th)] x [floor(dj/tw),
  ceil(dj/tw)]`` minus ``(0, 0)``) and proved acyclic by the PR 1
  ranking-vector verifier; irregular patterns are coarsened by
  enumeration and Kahn-checked.
* **Tile scheduling state** — :class:`TileRunState` holds tile indegrees
  and the finished set and feeds the caller's per-place ready lists, on
  every engine; recovery rebuilds it from the plane's finish flags (a
  dead place invalidates *tiles*, not cells).
* **The tile worker** — :func:`execute_tiles` places a batch of ready
  tiles (inline: every place's ready list; threaded: one worker's),
  runs them on the run's :class:`~repro.core.plane.TilePlane` through
  one :func:`~repro.core.plane.run_tiles` call (the executor the mp
  workers hand whole round batches), and accounts each tile at its own
  execution place.

:func:`plan_tiles` is the one place a run decides its granularity:
``DPX10Config(tile_shape=(h, w))`` is used as given, ``None`` is planned,
and ``(1, 1)`` is the per-vertex reference: every run without a plan
runs on a grid of 1×1 tiles (``dag.coarsen(1, 1)``).
"""

from __future__ import annotations

import copy
import functools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.symbolic import find_ranking_vector
from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.core import plane as _plane
from repro.core.trace import TraceEvent, paced, split_span
from repro.obs.metrics import DEFAULT_BYTES_BUCKETS
from repro.errors import DeadPlaceException, PatternError
from repro.util.lru import LRU
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.worker import ExecutionState

__all__ = [
    "TileGrid",
    "TiledDag",
    "TileRunState",
    "coarsen",
    "coarsen_offsets",
    "execute_tiles",
    "plan_tiles",
]

Coord = Tuple[int, int]
#: where :class:`TileRunState` sends a ready tile: ``push(home place, tile)``
Push = Callable[[int, Coord], None]
Offset = Tuple[int, int]

#: dense-pattern halo cells. Computed tile-relative per class ``(offsets,
#: h, w, margins)`` — position matters only through each grid edge within
#: the stencil's reach, so a shape has at most nine — and kept per
#: ``(class, r0, c0)`` too, so a repeated tile allocates nothing. FIFO
#: past the bound: a pooled place meets new job sizes without end. Every
#: place's worker of a threaded run fills it at once, so inserts and
#: evictions take the lock (a lone ``get`` is atomic).
_HALO_CACHE: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
_HALO_CACHE_SIZE = 4096
_HALO_LOCK = threading.Lock()


def _stencil_halo(offs, H, W, r0, r1, c0, c1) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major cells outside rectangle ``[r0, r1) x [c0, c1)`` of an
    ``H x W`` grid that its cells reach through stencil ``offs``."""
    pieces: List[Tuple[int, int, int, int]] = []
    for di, dj in offs:
        sr0, sr1 = max(r0 + di, 0), min(r1 + di, H)
        sc0, sc1 = max(c0 + dj, 0), min(c1 + dj, W)
        if sr0 >= sr1 or sc0 >= sc1:
            continue
        # shifted-rect rows above/below the tile: full shifted width
        if sr0 < r0:
            pieces.append((sr0, min(sr1, r0), sc0, sc1))
        if sr1 > r1:
            pieces.append((max(sr0, r1), sr1, sc0, sc1))
        # rows overlapping the tile: only the columns outside it
        rr0, rr1 = max(sr0, r0), min(sr1, r1)
        if rr0 < rr1:
            if sc0 < c0:
                pieces.append((rr0, rr1, sc0, min(sc1, c0)))
            if sc1 > c1:
                pieces.append((rr0, rr1, max(sc0, c1), sc1))
    if not pieces:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = np.concatenate([np.repeat(np.arange(a, b), d - c) for a, b, c, d in pieces])
    cols = np.concatenate([np.tile(np.arange(c, d), b - a) for a, b, c, d in pieces])
    _, idx = np.unique(rows * W + cols, return_index=True)
    return rows[idx], cols[idx]


def _csr(fanout: np.ndarray, succ: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:attr:`TiledDag.successors` off the fan-outs and the successors, tile after tile."""
    return np.concatenate(([0], np.cumsum(fanout))).astype(np.int32), succ.astype(np.int32)


def _out_edges(successors: Tuple[np.ndarray, np.ndarray], tiles) -> np.ndarray:
    """The successors of flat ``tiles``, tile after tile."""
    (ptr, succ), tiles = successors, np.asarray(tiles, np.int64)
    lo, n = ptr[tiles], ptr[tiles + 1] - ptr[tiles]
    return succ[np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)]


def _release(indegree: np.ndarray, successors, done) -> List[int]:
    """Finish tiles ``done`` (flat, in order): one ``np.subtract.at`` over
    their out-edges; returns the tiles that releases, each at its last
    edge here — the order finishing ``done`` one at a time gives."""
    out = _out_edges(successors, done)
    np.subtract.at(indegree, out, 1)
    hit = out[np.flatnonzero(indegree[out] == 0)].tolist()
    return list(dict.fromkeys(reversed(hit)))[::-1]


@dataclass(frozen=True)
class TileGrid:
    """Geometry of a ``tile_h x tile_w`` blocking of a ``height x width`` matrix:
    the one place it is decided. A remainder of exactly one row (column),
    the boundary of an ``(n+1) x (m+1)`` DP matrix, joins the *first* tile
    row (column); any other remainder trails as a clipped last tile."""

    height: int
    width: int
    tile_h: int
    tile_w: int

    @functools.cached_property
    def lead(self) -> Coord:
        """Cells the first tile row and column hold beyond ``tile_h`` / ``tile_w``."""
        (h, th), (w, tw) = (self.height, self.tile_h), (self.width, self.tile_w)
        return (int(h % th == 1 and h > th), int(w % tw == 1 and w > tw))

    @property
    def nti(self) -> int:
        return -(-(self.height - self.lead[0]) // self.tile_h)

    @property
    def ntj(self) -> int:
        return -(-(self.width - self.lead[1]) // self.tile_w)

    @property
    def cellwise(self) -> bool:
        """1×1 tiles: each is the vertex it holds (an mp run with no plan)."""
        return self.tile_h == self.tile_w == 1

    def tile_of(self, i, j):
        """The tile of cell ``(i, j)``, on ints or arrays of cells."""
        lh, lw = self.lead  # a leading row floors to tile -1: lift it to 0
        return ((i - lh) // self.tile_h + (i < lh), (j - lw) // self.tile_w + (j < lw))

    def origin(self, ti: int, tj: int) -> Coord:
        lh, lw = self.lead
        return (ti * self.tile_h + lh * (ti > 0), tj * self.tile_w + lw * (tj > 0))

    @functools.cached_property
    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each tile row's (column's) first cell, then the matrix edge."""
        (lh, lw), (th, tw) = self.lead, (self.tile_h, self.tile_w)
        return (np.r_[0, np.arange(th + lh, self.height, th), self.height],
                np.r_[0, np.arange(tw + lw, self.width, tw), self.width])

    def per_tile(self, cells: np.ndarray) -> np.ndarray:
        """An ``(height, width)`` cell array summed over each tile."""
        rs, cs = (starts[:-1] for starts in self.edges)
        return np.add.reduceat(np.add.reduceat(cells, rs, axis=0, dtype=np.int64), cs, axis=1)

    def bounds(self, ti: int, tj: int) -> Tuple[int, int, int, int]:
        """The tile's cell rectangle ``(r0, r1, c0, c1)``, clipped to the matrix."""
        (r0, c0), (r1, c1) = self.origin(ti, tj), self.origin(ti + 1, tj + 1)
        return (r0, min(r1, self.height), c0, min(c1, self.width))


def coarsen_offsets(
    offsets: Tuple[Offset, ...], tile_h: int, tile_w: int, lead: Coord = (0, 0)
) -> Tuple[Offset, ...]:
    """Map a cell-offset set to tile granularity (the clipping rule).

    A cell at local position ``(r, c)`` of a tile reaches tile-row offset
    ``floor((r + di) / tile_h)``; over ``r in [0, tile_h)`` that spans
    exactly ``[floor(di/tile_h), ceil(di/tile_h)]`` (and likewise for
    columns). The tile-level offset set is the cross product of those
    ranges over all offsets, minus ``(0, 0)`` (intra-tile edges are
    resolved by the intra-tile wavefront order, not the tile DAG). Where
    the first tile leads by a cell (``TileGrid.lead``), reaching from or
    into that cell spans one tile fewer: ``sign(d) * ((|d| - 1) // t)``.
    """

    def reach(d: int, t: int, led: int) -> range:
        near = (abs(d) - 1) // t * ((d > 0) - (d < 0)) if led else d // t
        return range(min(d // t, near), max(-(-d // t), near) + 1)

    out: Set[Offset] = set()
    for di, dj in offsets:
        for a in reach(di, tile_h, lead[0]):
            for b in reach(dj, tile_w, lead[1]):
                if (a, b) != (0, 0):
                    out.add((a, b))
    return tuple(sorted(out))


class TiledDag(Dag):
    """The tile-level DAG derived from a base pattern by :func:`coarsen`.

    A full :class:`~repro.core.dag.Dag` over the tile grid — ``validate``,
    the mp engine's level scheduler, and the tiled runtime all treat it as
    an ordinary pattern — plus the cell-level services the tile worker
    needs: :meth:`cells_of` (a tile's active cells in intra-tile wavefront
    order) and :meth:`halo_of` (the out-of-tile dependency cells).
    """

    def __init__(
        self,
        base: Dag,
        grid: TileGrid,
        *,
        tile_offsets: Optional[Tuple[Offset, ...]] = None,
        table: Optional[np.ndarray] = None,
        tile_active: Optional[np.ndarray] = None,
        base_rank: Optional[Offset] = None,
    ) -> None:
        super().__init__(grid.nti, grid.ntj)
        self.base = base
        self.grid = grid
        self.tile_offsets = tile_offsets
        self._table = table  # an irregular pattern's successors, enumerated
        self.tile_active = tile_active
        self._base_rank = base_rank
        self._cache: Dict[str, object] = {}
        #: stencil mode: offsets known, halo and order derivable symbolically
        self.stencil_mode = tile_offsets is not None
        if self.stencil_mode:
            offs = tuple(base.offsets)  # type: ignore[attr-defined]
            self.pads = (
                max(0, max(-di for di, _ in offs)),
                max(0, max(di for di, _ in offs)),
                max(0, max(-dj for _, dj in offs)),
                max(0, max(dj for _, dj in offs)),
            )
        else:
            self.pads = (0, 0, 0, 0)

    # -- the tile wavefront as arrays ----------------------------------------------
    @functools.cached_property
    def tile_cells(self) -> np.ndarray:
        """Active cells per tile, ``(nti, ntj)``, 0 on inactive tiles: exact,
        so completions, progress and fault thresholds stay cell-granular."""
        g, base = self.grid, self.base
        if g.cellwise:  # a 1×1 tile is active exactly when its cell is
            return self.tile_active.astype(np.int64)
        if type(base).is_active is Dag.is_active:
            counts = np.outer(*map(np.diff, g.edges))
        else:
            counts = g.per_tile(_cell_mask(base))
        return np.where(self.tile_active, counts, 0)

    @functools.cached_property
    def successors(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR ``(ptr, succ)``, int32: tile ``t = ti * ntj + tj``'s successors
        are ``succ[ptr[t]:ptr[t + 1]]``, flat tile indices in
        :meth:`get_anti_dependency` order."""
        nti, ntj = self.grid.nti, self.grid.ntj
        if not self.stencil_mode:
            return self._table
        ti, tj = np.divmod(np.arange(nti * ntj)[:, None], ntj)
        a, b = np.array(self.tile_offsets, np.int64).reshape(-1, 2).T
        si, sj = ti - a, tj - b
        ok = (si >= 0) & (si < nti) & (sj >= 0) & (sj < ntj)
        ok[ok] = self.tile_active[si[ok], sj[ok]]
        return _csr(ok.sum(axis=1), (si * ntj + sj)[ok])

    def levels(self) -> List[List[Coord]]:
        """Active tiles by topological depth (Kahn by generations); within a
        level, in the order releasing the one before tile by tile gives.
        A fault-free inline run's turns (mp's too) are these generations.
        Computed once per tile DAG (per shape for a memoized one, whose
        copies share ``_cache``); callers must not modify it."""
        if "levels" in self._cache:
            return self._cache["levels"]
        active = self.tile_active.ravel()
        out = _out_edges(self.successors, np.flatnonzero(active))
        indegree = np.bincount(out, minlength=len(active))
        level = np.flatnonzero(active & (indegree == 0)).tolist()
        levels = []
        while level:
            levels.append([divmod(t, self.grid.ntj) for t in level])
            level = _release(indegree, self.successors, level)
        self._cache["levels"] = levels
        return levels

    # -- the Dag interface over tiles ----------------------------------------------
    def is_active(self, ti: int, tj: int) -> bool:
        return bool(self.tile_active[ti, tj])

    def get_dependency(self, ti: int, tj: int) -> List[VertexId]:
        # cold (validation, tests): the active tiles whose successors list this one
        ptr, succ = self.successors
        src = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))[succ == ti * self.grid.ntj + tj]
        src = src[self.tile_active.ravel()[src]]
        return [VertexId(*divmod(t, self.grid.ntj)) for t in src.tolist()]

    def get_anti_dependency(self, ti: int, tj: int) -> List[VertexId]:
        (ptr, succ), t = self.successors, ti * self.grid.ntj + tj
        return [VertexId(*divmod(s, self.grid.ntj)) for s in succ[ptr[t] : ptr[t + 1]].tolist()]

    def active_tiles(self) -> List[Coord]:
        """Tiles with work, row-major. A tile whose cells are all inactive
        is not listed; an over-approximate ``active_cells_in_rect`` may
        list a no-op tile, which executes harmlessly as zero cells."""
        return list(zip(*(a.tolist() for a in np.nonzero(self.tile_active))))

    # -- cell-level services for the tile worker -------------------------------------
    def cells_of(self, ti: int, tj: int) -> Tuple[np.ndarray, np.ndarray]:
        """The tile's active cells ``(rows, cols)`` in a valid intra-tile order.

        Stencil mode sorts by the base pattern's wavefront level
        ``a*i + b*j`` (the ranking vector proves every dependency edge
        strictly decreases it, so ascending level is a topological
        order); irregular patterns run a per-tile Kahn pass.
        """
        r0, r1, c0, c1 = self.grid.bounds(ti, tj)
        base = self.base
        if self.stencil_mode:
            a, b = self._base_rank
            if r1 - r0 == c1 - c0 == 1:  # one cell: the unplanned mp grid
                n = int(base.is_active(r0, c0))
                return np.full(n, r0, np.int64), np.full(n, c0, np.int64)
            ii, jj = np.meshgrid(
                np.arange(r0, r1, dtype=np.int64),
                np.arange(c0, c1, dtype=np.int64),
                indexing="ij",
            )
            rows, cols = ii.ravel(), jj.ravel()
            if type(base).is_active is not Dag.is_active:
                mask = _active_mask(base, rows, cols)
                rows, cols = rows[mask], cols[mask]
            order = np.lexsort((cols, rows, a * rows + b * cols))
            return rows[order], cols[order]
        cells = [
            (i, j)
            for i in range(r0, r1)
            for j in range(c0, c1)
            if base.is_active(i, j)
        ]
        cellset = set(cells)
        indeg = {
            c: sum(1 for d in base.get_dependency(*c) if (d.i, d.j) in cellset)
            for c in cells
        }
        q: Deque[Coord] = deque(c for c in cells if indeg[c] == 0)
        order_list: List[Coord] = []
        while q:
            c = q.popleft()
            order_list.append(c)
            for adep in base.get_anti_dependency(*c):
                key = (adep.i, adep.j)
                if key in indeg:
                    indeg[key] -= 1
                    if indeg[key] == 0:
                        q.append(key)
        if len(order_list) != len(cells):  # pragma: no cover - base DAG is acyclic
            raise PatternError(
                f"tile ({ti}, {tj}) has a cyclic intra-tile subgraph"
            )
        if not order_list:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        arr = np.array(order_list, dtype=np.int64)
        return arr[:, 0], arr[:, 1]

    def halo_of(self, ti: int, tj: int) -> Tuple[np.ndarray, np.ndarray]:
        """Active cells outside the tile that its cells depend on.

        These are all finished before the tile is released: each lies in a
        tile reachable by a coarsened offset, hence in a predecessor of
        ``(ti, tj)`` in the tile DAG.
        """
        r0, r1, c0, c1 = self.grid.bounds(ti, tj)
        base = self.base
        if self.stencil_mode:
            offs = tuple(base.offsets)  # type: ignore[attr-defined]
            if type(base).is_active is not Dag.is_active:
                rows, cols = _stencil_halo(offs, base.height, base.width, r0, r1, c0, c1)
                mask = _active_mask(base, rows, cols)
                return rows[mask], cols[mask]
            # dense: pure bounds arithmetic, computed once per class in a
            # frame that keeps only the grid edges within the stencil's reach
            pt, pb, pl, pr = self.pads
            h, w, vr, vc = r1 - r0, c1 - c0, min(r0, pt), min(c0, pl)
            key = (offs, h, w, vr, min(base.height - r1, pb), vc, min(base.width - c1, pr))
            got = _HALO_CACHE.get((key, r0, c0))
            if got is None:
                with _HALO_LOCK:
                    rel = _HALO_CACHE.get(key)
                    if rel is None:
                        rows, cols = _stencil_halo(
                            offs, vr + h + key[4], vc + w + key[6], vr, vr + h, vc, vc + w
                        )
                        rel = _HALO_CACHE[key] = (rows - vr, cols - vc)
                    got = _HALO_CACHE[key, r0, c0] = (rel[0] + r0, rel[1] + c0)
                    while len(_HALO_CACHE) > _HALO_CACHE_SIZE:
                        del _HALO_CACHE[next(iter(_HALO_CACHE))]
            return got
        seen: Dict[Coord, None] = {}
        for i in range(r0, r1):
            for j in range(c0, c1):
                if not base.is_active(i, j):
                    continue
                for d in base.get_dependency(i, j):
                    if r0 <= d.i < r1 and c0 <= d.j < c1:
                        continue
                    if base.is_active(d.i, d.j):
                        seen[(d.i, d.j)] = None
        if not seen:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        arr = np.array(list(seen), dtype=np.int64)
        return arr[:, 0], arr[:, 1]

    def halos_of(self, tiles: Sequence[Coord]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`halo_of` for a batch, flattened: ``(k, rows, cols)``, cell
        ``(rows[e], cols[e])`` lying in the halo of ``tiles[k[e]]``."""
        halos = [self.halo_of(*t) for t in tiles] or [(np.empty(0, np.int64),) * 2]
        k = np.repeat(np.arange(len(halos)), [len(rows) for rows, _ in halos])
        return k, np.concatenate([r for r, _ in halos]), np.concatenate([c for _, c in halos])


def _active_mask(base: Dag, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``base.is_active`` over arrays of cells: vectorized where the pattern is."""
    mask = base.is_active_array(rows, cols)
    if mask is None:
        mask = np.fromiter(
            (base.is_active(int(i), int(j)) for i, j in zip(rows, cols)),
            dtype=bool,
            count=len(rows),
        )
    return mask


def _cell_mask(base: Dag) -> np.ndarray:
    """``base.is_active`` over its whole ``(height, width)`` matrix."""
    if type(base).is_active is Dag.is_active:
        return np.ones((base.height, base.width), bool)
    rows, cols = np.divmod(np.arange(base.height * base.width), base.width)
    return _active_mask(base, rows, cols).reshape(base.height, base.width)


#: dense-stencil tile geometry by ``(offsets, height, width, tile_h,
#: tile_w)``: a :class:`TiledDag` with no base whose grid, tile offsets
#: and activity, ``successors``, ``tile_cells`` and ``levels()`` every
#: solve of that shape shares, read-only; each solve rebases a copy onto
#: its own dag. Bounded: a pooled place meets new job sizes without end.
_GEOMETRY = LRU(64)


def _shared(tiled: TiledDag) -> TiledDag:
    """``tiled`` with its tile arrays computed and read-only, and no base.
    ``levels()`` is left to the first caller that asks (into the
    ``_cache`` every copy shares); no engine asks."""
    for a in (*tiled.successors, tiled.tile_cells, tiled.tile_active):
        a.setflags(write=False)
    tiled.base = None
    return tiled


def coarsen(base: Dag, tile_h: int, tile_w: int) -> TiledDag:
    """Build and verify the tile-level DAG (see :meth:`Dag.coarsen`);
    a dense stencil's comes from the geometry memo :data:`_GEOMETRY`."""
    require(
        isinstance(tile_h, int) and isinstance(tile_w, int) and tile_h >= 1 and tile_w >= 1,
        f"tile shape must be a pair of ints >= 1, got ({tile_h!r}, {tile_w!r})",
    )
    from repro.patterns.base import StencilDag  # local: patterns import core.dag

    kind = type(base)
    stencil_ok = (
        isinstance(base, StencilDag)
        and kind.get_dependency is StencilDag.get_dependency
        and kind.get_anti_dependency is StencilDag.get_anti_dependency
    )
    if stencil_ok and kind.is_active is Dag.is_active and (
        kind.active_cells_in_rect is Dag.active_cells_in_rect
    ):
        key = (tuple(base.offsets), base.height, base.width, tile_h, tile_w)
        tiled = copy.copy(_GEOMETRY.lookup(key, lambda: _shared(_coarsen(base, tile_h, tile_w, True))))
        tiled.base = base
        return tiled
    return _coarsen(base, tile_h, tile_w, stencil_ok)


def _coarsen(base: Dag, tile_h: int, tile_w: int, stencil_ok: bool) -> TiledDag:
    grid = TileGrid(base.height, base.width, tile_h, tile_w)
    if stencil_ok:
        offsets = tuple(base.offsets)
        base_rank = find_ranking_vector(offsets)
        if base_rank is None:
            raise PatternError(
                f"{type(base).__name__} offsets {sorted(offsets)} admit no "
                "ranking vector; the cell DAG itself is cyclic"
            )
        toffsets = coarsen_offsets(offsets, tile_h, tile_w, grid.lead)
        # prune tile offsets that cannot land inside the tile grid — e.g.
        # with a single tile column (tile_w >= width) every (0, +-1) edge
        # falls off the grid, which is what legalizes row-strip tiling of
        # antidiagonal-flavoured patterns
        toffsets = tuple(
            (a, b)
            for a, b in toffsets
            if abs(a) < grid.nti and abs(b) < grid.ntj
        )
        if toffsets and find_ranking_vector(toffsets) is None:
            raise PatternError(
                f"tile shape ({tile_h}, {tile_w}) coarsens offsets "
                f"{sorted(offsets)} to {list(toffsets)}, which admits no "
                "ranking vector: the tile DAG would be cyclic. Use a tile "
                "shape that covers the offset reach (see docs/TILING.md)."
            )
        if grid.cellwise:  # exact, and vectorized: a 1×1 tile holds its one cell
            tile_active = _cell_mask(base)
        else:
            tile_active = np.zeros((grid.nti, grid.ntj), dtype=bool)
            for ti in range(grid.nti):
                for tj in range(grid.ntj):
                    tile_active[ti, tj] = (
                        base.active_cells_in_rect(*grid.bounds(ti, tj)) > 0
                    )
        return TiledDag(
            base,
            grid,
            tile_offsets=toffsets,
            tile_active=tile_active,
            base_rank=base_rank,
        )

    # irregular pattern: enumerate the cell edges between active cells,
    # hoist them to tiles, and lay each tile's distinct successors out
    # in tile order, tile after tile (CSR)
    active, width, ntiles = _cell_mask(base), base.width, grid.nti * grid.ntj

    def tile(flat_cells):
        ti, tj = grid.tile_of(*np.divmod(flat_cells, width))
        return ti * grid.ntj + tj

    cells = np.flatnonzero(active)
    src: List[int] = []
    fanin = np.zeros(len(cells), np.int64)
    for k, (i, j) in enumerate(zip(*(a.tolist() for a in np.divmod(cells, width)))):
        deps = base.get_dependency(i, j)
        fanin[k] = len(deps)
        src += [d.i * width + d.j for d in deps]
    src = np.array(src, np.int64)
    live = active.ravel()[src]
    src, dst = tile(src[live]), np.repeat(tile(cells), fanin)[live]
    edges = np.sort((src * ntiles + dst)[src != dst])
    src, dst = np.divmod(edges[np.diff(edges, prepend=-1) != 0], ntiles)
    table = _csr(np.bincount(src, minlength=ntiles), dst)
    tile_active = np.zeros(ntiles, bool)
    tile_active[tile(cells)] = True
    tiled = TiledDag(
        base, grid, table=table, tile_active=tile_active.reshape(grid.nti, grid.ntj)
    )
    done, ntiles = sum(map(len, tiled.levels())), int(tile_active.sum())
    if done != ntiles:
        raise PatternError(
            f"tile shape ({tile_h}, {tile_w}) makes the coarsened "
            f"{type(base).__name__} cyclic: only {done} of {ntiles} "
            "tiles schedulable"
        )
    return tiled


#: edge of a planned tile: per-tile cost against parallel slack and window
#: size (docs/TILING.md §4; since the batched tile path 64x64 reads as fast
#: or faster, so a ledger rung should settle it)
PLANNED_TILE = 128


def plan_tiles(dag: Dag, config) -> Optional[TiledDag]:
    """Decide a run's granularity: its tile DAG, or ``None`` for per-vertex
    (the runtime then runs the 1×1 grid, ``dag.coarsen(1, 1)``).

    An explicit ``config.tile_shape`` is used as given — ``(1, 1)`` is the
    per-vertex reference path. ``None`` plans ``PLANNED_TILE`` square
    tiles capped at the matrix, then the full-width strip row-reaching
    patterns need, then per-vertex where no shape coarsens acyclically.
    Every tiled run, planned or explicit, tries the generated kernel
    (``plane.tile_kernel`` falls back to the hand kernel, then the
    per-cell loop).
    """
    shape = config.tile_shape
    if shape is not None:
        return None if tuple(shape) == (1, 1) else dag.coarsen(*shape)
    th = min(dag.height, PLANNED_TILE)
    for shape in dict.fromkeys(((th, min(dag.width, PLANNED_TILE)), (th, dag.width))):
        try:
            return dag.coarsen(*shape)
        except PatternError:
            continue
    return None


class TileRunState:
    """Tile-granular scheduling state of a tiled run, on every engine.

    The :class:`~repro.core.plane.TilePlane` owns values, finish flags
    and tile homes; this tracks the *tile* wavefront over it with the
    paper's indegree counters, held as arrays over flat tile indices
    (``indegree``, -1 once finished; ``finished``; ``home``). The ready
    lists are the caller's: every released tile goes to ``push(place,
    tile)`` — the drivers' :meth:`~repro.core.worker.ExecutionState.
    push_ready`, on every engine.
    """

    def __init__(self, tiled: TiledDag) -> None:
        self.tiled = tiled
        self.grid = tiled.grid
        self.home = np.empty((tiled.grid.nti, tiled.grid.ntj), np.int32)
        self.indegree = np.empty(0, np.int64)
        self.finished = np.empty(0, bool)
        self.remaining: Dict[int, int] = {}
        self.lock = threading.Lock()

    def build(self, plane, place_ids: Sequence[int], push: Push) -> None:
        """Derive homes and indegrees from the plane; push the ready tiles.

        Called at start-up (nothing finished yet) and again after every
        recovery, when the plane's flags say which tiles survived: a tile
        is finished when all its cells are, and a lost or rolled-back
        tile gets its indegree reset — the tile-granular analogue of the
        paper's "reset the indegree" step. ``place_ids`` are the places
        the plane homes unfinished tiles on; the caller empties its
        ready lists first.
        """
        tiled, g = self.tiled, self.grid
        active, cells = tiled.tile_active.ravel(), tiled.tile_cells.ravel()
        finished = np.zeros(len(active), bool)
        if plane.finished.any():
            finished = active & (cells > 0) & (g.per_tile(plane.finished).ravel() == cells)
        out = _out_edges(tiled.successors, np.flatnonzero(active & ~finished))
        indegree = np.bincount(out, minlength=len(active))
        indegree[finished] = -1
        pending = np.flatnonzero(active & ~finished)
        ready = pending[indegree[pending] == 0]
        home = plane.owners.copy()
        counts = np.bincount(home.ravel()[pending], minlength=max(place_ids) + 1)
        with self.lock:
            self.home, self.finished, self.indegree = home, finished, indegree
            self.remaining = {pid: int(counts[pid]) for pid in place_ids}
        for t, pid in zip(ready.tolist(), home.ravel()[ready].tolist()):
            push(pid, divmod(t, g.ntj))

    # -- scheduling ------------------------------------------------------------------
    def on_tiles_finished(self, tiles: Sequence[Coord], push: Push) -> None:
        """Mark a batch finished and release the successors whose indegree
        hits 0: one ``np.subtract.at`` over the batch's out-edges, each
        released tile pushed at its last such edge, so the ready lists see
        the order tile-by-tile release gives."""
        ntj = self.grid.ntj
        t = np.array([a * ntj + b for a, b in tiles], np.int64)
        with self.lock:
            t = t[~self.finished[t]]
            self.finished[t] = True
            for pid in self.home.ravel()[t].tolist():
                if pid in self.remaining:
                    self.remaining[pid] -= 1
            released = _release(self.indegree, self.tiled.successors, t)
            homes = self.home.ravel()[released].tolist()
        for r, pid in zip(released, homes):
            push(pid, divmod(r, ntj))

    def place_done(self, pid: int) -> bool:
        with self.lock:
            return self.remaining.get(pid, 0) <= 0

    # -- the per-vertex unit: one cell of a 1×1 grid, ``t`` its flat index -------------
    def on_cell_finished(self, t: int, home: int) -> None:
        """Count cell ``t`` finished at its home place, once."""
        with self.lock:
            if not self.finished[t]:
                self.finished[t] = True
                self.remaining[home] -= 1

    def release(self, t: int) -> bool:
        """A predecessor of cell ``t`` finished: whether ``t`` is now ready."""
        with self.lock:
            self.indegree[t] -= 1
            return self.indegree[t] == 0 and not self.finished[t]


# -- the tile worker ------------------------------------------------------------------
def execute_tiles(state: "ExecutionState", tiles: List[Coord]) -> None:
    """Run a batch of ready tiles end to end: place, compute, account, notify.

    A tile is released only once all its producers finished, so the
    tiles of one batch never depend on one another. In process the
    strategy places each tile (halo owners from one lookup over the
    batch) and :func:`repro.core.plane.run_tiles` computes the batch in
    one call; on mp the batch goes to the place processes
    (``state.run_tiles``), each tile at home. Each tile is accounted at its
    execution place, in batch order; its trace event and straggler sample
    are its :func:`~repro.core.trace.split_span` share of the call — or,
    where the places timed their own batches, of its place's. The batch's
    successors are released in one indegree update.
    """
    ts: TileRunState = state.tiles
    tiled = ts.tiled
    plane = state.plane
    cfg = state.config
    trace = state.trace
    homes = [int(ts.home[tile]) for tile in tiles]
    if cfg.pace is not None:  # each tile's turn (see repro.serve.scheduler)
        for tile, home in zip(tiles, homes):
            paced(cfg.pace, int(tiled.tile_cells[tile]), trace, home)
    if state.run_tiles is None:
        # every tile's halo owners (the strategy's ``dep_homes``) in one
        # lookup; run_tiles reads the same halo
        run, halo = _plane.run_tiles, tiled.halos_of(tiles)
        hk, hrows, hcols = halo
        owners = plane.owners_of(hrows, hcols).tolist()
        bounds = np.searchsorted(hk, np.arange(len(tiles) + 1)).tolist()
        alive = state.group.alive_ids()
        places = [
            state.strategy.choose_place(
                tile, home, owners[bounds[k] : bounds[k + 1]], alive, state.rngs[home], plane.nbytes
            )
            for k, (tile, home) in enumerate(zip(tiles, homes))
        ]
    else:
        # an mp place process computes the tiles its plane homes, off
        # halos it builds itself
        run, halo, places = state.run_tiles, None, homes

    clock = trace.now if trace is not None else time.perf_counter
    metrics = state.metrics
    t0 = clock()
    done = run(plane, tiled, state.app, state.kernel, tiles, places, halo, cfg.sanitize)
    # a place that died mid-batch answers None for its tiles: what the
    # survivors computed is accounted first, then the death is raised
    lost = [p for p, d in zip(places, done) if d is None]
    if lost:
        keep = [k for k, d in enumerate(done) if d is not None]
        tiles, places, homes, done = ([seq[k] for k in keep] for seq in (tiles, places, homes, done))
    cells = [d[0] for d in done]
    load: Dict[int, int] = {}  # cells executed per place
    for p, n in zip(places, cells):
        load[p] = load.get(p, 0) + n
    if done and len(done[0]) > 2:
        # the places timed their batches (and carry their throttles)
        spans = [d[2] for d in done]
    else:
        weights: List[float] = cells
        if state.chaos is not None and state.chaos.has_throttles:
            # slow-place chaos, one sleep per execution place (the
            # per-vertex on_execute hook's analogue): its own tiles'
            # spans carry it
            per_cell = (clock() - t0) / max(sum(cells), 1)
            sleep_per_cell = {p: state.chaos.throttle_batch(p, n) / max(n, 1) for p, n in load.items()}
            weights = [n * (per_cell + sleep_per_cell[p]) for p, n in zip(places, cells)]
        spans = split_span(t0, clock(), weights)
    with state._completions_lock:
        for p, n in load.items():
            state.executed_by[p] = state.executed_by.get(p, 0) + n
        completed = state.completions
        state.completions += sum(cells)
    # 1×1 tiles (an mp run with no plan) trace as the cells they are
    cellwise = ts.grid.cellwise
    for k, (tile, exec_place, (n, transfers, *_), (start, end)) in enumerate(
        zip(tiles, places, done, spans)
    ):
        if metrics.enabled:
            metrics.counter(
                "dpx10_tiles_executed_total", "tiles executed per place", ("place",)
            ).labels(exec_place).inc()
        for src, dst, nbytes in transfers:
            state.network.record(src, dst, nbytes)
            if metrics.enabled and dst == exec_place:
                metrics.counter(
                    "dpx10_halo_fetches_total",
                    "batched remote halo fetches (one per tile edge)",
                    ("place",),
                ).labels(exec_place).inc()
                metrics.histogram(
                    "dpx10_halo_fetch_bytes", "bytes moved per batched halo fetch",
                    ("transport",), buckets=DEFAULT_BYTES_BUCKETS,
                ).labels("store").observe(nbytes)
        # the call reserved its cells' completion numbers up front:
        # each tile crosses thresholds inside its own slice of them
        prev, completed = completed, completed + n
        if (
            cfg.ft_mode == "snapshot"
            and cfg.snapshot_interval > 0
            and completed // cfg.snapshot_interval > prev // cfg.snapshot_interval
        ):
            state.take_snapshot()
        if (
            cfg.on_progress is not None
            and cfg.progress_interval > 0
            and completed // cfg.progress_interval > prev // cfg.progress_interval
        ):
            cfg.on_progress(completed, state.total_active)
        if state.straggler is not None:
            state.straggler.observe(exec_place, end - start, n)
        if trace is not None:
            r0, c0 = ts.grid.origin(*tile)
            unit = None if cellwise else tile
            trace.record(TraceEvent(r0, c0, homes[k], exec_place, start, end, tile=unit, cells=n))
        if state.injector is not None:
            victims = state.injector.poll_completions(completed)
            if victims:
                ts.on_tiles_finished(tiles[:k], state.push_ready)
                for victim in victims:
                    state.group.kill(victim)
                    if state.chaos is not None:
                        state.chaos.record("kill")
                raise DeadPlaceException(victims[0])
    ts.on_tiles_finished(tiles, state.push_ready)
    if lost:
        raise DeadPlaceException(lost[0])
