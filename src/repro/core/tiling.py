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
* **Tile scheduling state** — :class:`TileRunState` holds tile indegrees,
  per-place ready lists and the finished set; recovery rebuilds it from
  the plane's finish flags (a dead place invalidates *tiles*, not
  cells).
* **The tile worker** — :func:`execute_tile` places a tile, runs it on
  the run's :class:`~repro.core.plane.TilePlane` through
  :func:`~repro.core.plane.run_tiles` (the executor the mp workers hand
  whole level batches), and feeds the transfers it reports to the network model.

:func:`plan_tiles` is the one place a run decides its granularity:
``DPX10Config(tile_shape=(h, w))`` is used as given, ``None`` is planned,
and ``(1, 1)`` keeps the per-vertex reference path bit-for-bit.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.symbolic import find_ranking_vector
from repro.core.api import VertexId
from repro.core.dag import Dag
from repro.core import plane as _plane
from repro.core.trace import Span, TraceEvent
from repro.obs.metrics import DEFAULT_BYTES_BUCKETS
from repro.errors import DeadPlaceException, PatternError
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.worker import ExecutionState

__all__ = [
    "TileGrid",
    "TiledDag",
    "TileRunState",
    "coarsen",
    "coarsen_offsets",
    "execute_tile",
    "plan_tiles",
]

Coord = Tuple[int, int]
Offset = Tuple[int, int]

#: relative intra-tile wavefront orders keyed by ``(h, w, a, b)``. For a
#: dense stencil the rank ``a*i + b*j`` is linear, so the sorted cell
#: order of every full ``h×w`` tile is the same up to the tile origin —
#: cache it once per shape instead of lexsorting per tile, per run.
_CELL_ORDER_CACHE: Dict[Tuple[int, int, int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _cell_order(h: int, w: int, a: int, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """Tile-relative ``(rows, cols)`` in ascending ``a*i + b*j`` rank order."""
    cached = _CELL_ORDER_CACHE.get((h, w, a, b))
    if cached is None:
        ii, jj = np.meshgrid(
            np.arange(h, dtype=np.int64),
            np.arange(w, dtype=np.int64),
            indexing="ij",
        )
        ri, rj = ii.ravel(), jj.ravel()
        order = np.lexsort((rj, ri, a * ri + b * rj))
        cached = (ri[order], rj[order])
        _CELL_ORDER_CACHE[(h, w, a, b)] = cached
    return cached


#: dense-pattern halo cells keyed by ``(offsets, H, W, r0, r1, c0, c1)``.
#: Same rationale as :data:`_CELL_ORDER_CACHE`: the strips are pure
#: bounds arithmetic, recomputed for identical tiles on every run.
_HALO_CACHE: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class TileGrid:
    """Geometry of a ``tile_h x tile_w`` blocking of a ``height x width`` matrix."""

    height: int
    width: int
    tile_h: int
    tile_w: int

    @property
    def nti(self) -> int:
        """Tile rows (the last row may be clipped)."""
        return -(-self.height // self.tile_h)

    @property
    def ntj(self) -> int:
        """Tile columns (the last column may be clipped)."""
        return -(-self.width // self.tile_w)

    def tile_of(self, i: int, j: int) -> Coord:
        return (i // self.tile_h, j // self.tile_w)

    def origin(self, ti: int, tj: int) -> Coord:
        return (ti * self.tile_h, tj * self.tile_w)

    def bounds(self, ti: int, tj: int) -> Tuple[int, int, int, int]:
        """The tile's cell rectangle ``(r0, r1, c0, c1)``, clipped to the matrix."""
        r0 = ti * self.tile_h
        c0 = tj * self.tile_w
        return (
            r0,
            min(r0 + self.tile_h, self.height),
            c0,
            min(c0 + self.tile_w, self.width),
        )


def coarsen_offsets(
    offsets: Tuple[Offset, ...], tile_h: int, tile_w: int
) -> Tuple[Offset, ...]:
    """Map a cell-offset set to tile granularity (the clipping rule).

    A cell at local position ``(r, c)`` of a tile reaches tile-row offset
    ``floor((r + di) / tile_h)``; over ``r in [0, tile_h)`` that spans
    exactly ``[floor(di/tile_h), ceil(di/tile_h)]`` (and likewise for
    columns). The tile-level offset set is the cross product of those
    ranges over all offsets, minus ``(0, 0)`` (intra-tile edges are
    resolved by the intra-tile wavefront order, not the tile DAG).
    """
    out: Set[Offset] = set()
    for di, dj in offsets:
        for a in range(di // tile_h, -(-di // tile_h) + 1):
            for b in range(dj // tile_w, -(-dj // tile_w) + 1):
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
        deps: Optional[Dict[Coord, List[Coord]]] = None,
        anti: Optional[Dict[Coord, List[Coord]]] = None,
        tile_active: Optional[np.ndarray] = None,
        base_rank: Optional[Offset] = None,
    ) -> None:
        super().__init__(grid.nti, grid.ntj)
        self.base = base
        self.grid = grid
        self.tile_offsets = tile_offsets
        self._deps = deps
        self._anti = anti
        self._tile_active = tile_active
        self._base_rank = base_rank
        #: whether the run should try a generated kernel before the hand
        #: ``compute_tile`` / per-cell loop; decided by :func:`plan_tiles`
        self.autokernel = False
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

    # -- the Dag interface over tiles ----------------------------------------------
    def is_active(self, ti: int, tj: int) -> bool:
        return bool(self._tile_active[ti, tj])

    def get_dependency(self, ti: int, tj: int) -> List[VertexId]:
        if self.stencil_mode:
            return self._tile_neighbors(ti, tj, +1)
        return [VertexId(*t) for t in self._deps.get((ti, tj), [])]

    def get_anti_dependency(self, ti: int, tj: int) -> List[VertexId]:
        if self.stencil_mode:
            return self._tile_neighbors(ti, tj, -1)
        return [VertexId(*t) for t in self._anti.get((ti, tj), [])]

    def _tile_neighbors(self, ti: int, tj: int, sign: int) -> List[VertexId]:
        out: List[VertexId] = []
        for a, b in self.tile_offsets:
            ni, nj = ti + sign * a, tj + sign * b
            if self.contains(ni, nj) and self.is_active(ni, nj):
                out.append(VertexId(ni, nj))
        return out

    def active_tiles(self) -> List[Coord]:
        """Tiles with work, row-major. A tile whose cells are all inactive
        is not listed; an over-approximate ``active_cells_in_rect`` may
        list a no-op tile, which executes harmlessly as zero cells."""
        return [(int(a), int(b)) for a, b in np.argwhere(self._tile_active)]

    # -- cell-level services for the tile worker -------------------------------------
    def _active_mask(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        mask = self.base.is_active_array(rows, cols)
        if mask is None:
            base = self.base
            mask = np.fromiter(
                (base.is_active(int(i), int(j)) for i, j in zip(rows, cols)),
                dtype=bool,
                count=len(rows),
            )
        return mask

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
            if type(base).is_active is Dag.is_active:
                # dense pattern: every cell is active and the wavefront
                # rank is linear, so the sorted order depends only on the
                # tile's shape — reuse it via the relative-order cache
                # instead of re-running meshgrid + lexsort per tile
                ri, rj = _cell_order(r1 - r0, c1 - c0, a, b)
                return r0 + ri, c0 + rj
            ii, jj = np.meshgrid(
                np.arange(r0, r1, dtype=np.int64),
                np.arange(c0, c1, dtype=np.int64),
                indexing="ij",
            )
            rows, cols = ii.ravel(), jj.ravel()
            mask = self._active_mask(rows, cols)
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
            H, W = base.height, base.width
            offs = tuple(base.offsets)  # type: ignore[attr-defined]
            dense = type(base).is_active is Dag.is_active
            if dense:
                # halo geometry is pure bounds arithmetic for dense
                # patterns; identical tiles recur every run, so pooled
                # warm places replay from the cache
                key = (offs, H, W, r0, r1, c0, c1)
                cached = _HALO_CACHE.get(key)
                if cached is not None:
                    return cached
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
                out = (np.empty(0, np.int64), np.empty(0, np.int64))
                if dense:
                    _HALO_CACHE[key] = out
                return out
            rs, cs = [], []
            for a0, a1, b0, b1 in pieces:
                ii, jj = np.meshgrid(
                    np.arange(a0, a1, dtype=np.int64),
                    np.arange(b0, b1, dtype=np.int64),
                    indexing="ij",
                )
                rs.append(ii.ravel())
                cs.append(jj.ravel())
            rows = np.concatenate(rs)
            cols = np.concatenate(cs)
            _, idx = np.unique(rows * W + cols, return_index=True)
            rows, cols = rows[idx], cols[idx]
            if not dense:
                mask = self._active_mask(rows, cols)
                rows, cols = rows[mask], cols[mask]
            out = (rows, cols)
            if dense:
                _HALO_CACHE[key] = out
            return out
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


def coarsen(base: Dag, tile_h: int, tile_w: int) -> TiledDag:
    """Build and verify the tile-level DAG (see :meth:`Dag.coarsen`)."""
    require(
        isinstance(tile_h, int) and isinstance(tile_w, int) and tile_h >= 1 and tile_w >= 1,
        f"tile shape must be a pair of ints >= 1, got ({tile_h!r}, {tile_w!r})",
    )
    grid = TileGrid(base.height, base.width, tile_h, tile_w)
    from repro.patterns.base import StencilDag  # local: patterns import core.dag

    stencil_ok = (
        isinstance(base, StencilDag)
        and type(base).get_dependency is StencilDag.get_dependency
        and type(base).get_anti_dependency is StencilDag.get_anti_dependency
    )
    if stencil_ok:
        offsets = tuple(base.offsets)
        base_rank = find_ranking_vector(offsets)
        if base_rank is None:
            raise PatternError(
                f"{type(base).__name__} offsets {sorted(offsets)} admit no "
                "ranking vector; the cell DAG itself is cyclic"
            )
        toffsets = coarsen_offsets(offsets, tile_h, tile_w)
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

    # irregular pattern: enumerate the cell edges and hoist them
    deps: Dict[Coord, Set[Coord]] = {}
    anti: Dict[Coord, Set[Coord]] = {}
    tile_active = np.zeros((grid.nti, grid.ntj), dtype=bool)
    for i, j in base.region:
        if not base.is_active(i, j):
            continue
        t = grid.tile_of(i, j)
        tile_active[t] = True
        for d in base.get_dependency(i, j):
            if not base.is_active(d.i, d.j):
                continue
            td = grid.tile_of(d.i, d.j)
            if td != t:
                deps.setdefault(t, set()).add(td)
                anti.setdefault(td, set()).add(t)
    tiles = [(int(a), int(b)) for a, b in np.argwhere(tile_active)]
    indeg = {t: len(deps.get(t, ())) for t in tiles}
    q: Deque[Coord] = deque(t for t in tiles if indeg[t] == 0)
    done = 0
    while q:
        t = q.popleft()
        done += 1
        for s in anti.get(t, ()):
            indeg[s] -= 1
            if indeg[s] == 0:
                q.append(s)
    if done != len(tiles):
        raise PatternError(
            f"tile shape ({tile_h}, {tile_w}) makes the coarsened "
            f"{type(base).__name__} cyclic: only {done} of {len(tiles)} "
            "tiles schedulable"
        )
    return TiledDag(
        base,
        grid,
        deps={t: sorted(s) for t, s in deps.items()},
        anti={t: sorted(s) for t, s in anti.items()},
        tile_active=tile_active,
    )


#: edge of a planned tile: docs/TILING.md §4 measures 128x128 at the sweet
#: spot on the inline and mp engines (per-tile fixed cost against parallel
#: slack and window size)
PLANNED_TILE = 128


def plan_tiles(dag: Dag, config) -> Optional[TiledDag]:
    """Decide a run's granularity: its tile DAG, or ``None`` for per-vertex.

    An explicit ``config.tile_shape`` is used as given — ``(1, 1)`` is the
    per-vertex reference path — and tries a generated kernel only on
    ``config.autokernel``. ``None`` plans ``PLANNED_TILE`` square tiles
    capped at the matrix, then the full-width strip row-reaching patterns
    need, then per-vertex where no shape coarsens acyclically; planned
    tiles always try the generated kernel (``plane.tile_kernel`` falls
    back to the hand kernel, then the per-cell loop).
    """
    shape = config.tile_shape
    if shape is not None:
        if tuple(shape) == (1, 1):
            return None
        tiled = dag.coarsen(*shape)
        tiled.autokernel = config.autokernel
        return tiled
    th = min(dag.height, PLANNED_TILE)
    for shape in dict.fromkeys(((th, min(dag.width, PLANNED_TILE)), (th, dag.width))):
        try:
            tiled = dag.coarsen(*shape)
        except PatternError:
            continue
        tiled.autokernel = True
        return tiled
    return None


class TileRunState:
    """Tile-granular scheduling state of a tiled in-process run.

    The :class:`~repro.core.plane.TilePlane` owns values, finish flags
    and tile homes; this tracks the *tile* wavefront over it: indegrees
    and finished tiles. The per-place ready lists are the run's own
    (``state.ready``, holding tile indices), so the drivers in
    :mod:`repro.core.worker` pop, wake and terminate on tiles exactly as
    they do on cells.
    """

    def __init__(self, tiled: TiledDag) -> None:
        self.tiled = tiled
        self.grid = tiled.grid
        self.home: Dict[Coord, int] = {}
        self.indegree: Dict[Coord, int] = {}
        self.finished: Set[Coord] = set()
        self.remaining: Dict[int, int] = {}
        self.lock = threading.Lock()

    def build(self, state: "ExecutionState") -> None:
        """Derive homes, indegrees and ready lists from the plane.

        Called at start-up (nothing finished yet) and again after every
        recovery, when the plane's flags say which tiles survived: a tile
        is finished when all its cells are, and a lost or rolled-back
        tile gets its indegree reset — the tile-granular analogue of the
        paper's "reset the indegree" step.
        """
        tiled = self.tiled
        plane = state.plane
        owners = plane.owners
        active_tiles = tiled.active_tiles()
        finished: Set[Coord] = set()
        if plane.finished.any():
            for t in active_tiles:
                rows, cols = tiled.cells_of(*t)
                if len(rows) and plane.finished[rows, cols].all():
                    finished.add(t)
        place_ids = state.dist.place_ids
        with self.lock:
            self.home = {t: int(owners[t]) for t in active_tiles}
            self.finished = finished
            self.indegree = {}
            state.ready = {pid: deque() for pid in place_ids}
            self.remaining = {pid: 0 for pid in place_ids}
            for t in active_tiles:
                if t in finished:
                    continue
                indeg = sum(
                    1
                    for d in tiled.get_dependency(*t)
                    if (d.i, d.j) not in finished
                )
                self.indegree[t] = indeg
                pid = self.home[t]
                self.remaining[pid] += 1
                if indeg == 0:
                    state.ready[pid].append(t)

    # -- scheduling ------------------------------------------------------------------
    def on_tile_finished(self, state: "ExecutionState", tile: Coord) -> None:
        """Mark finished and release successor tiles whose indegree hits 0."""
        newly_ready: List[Coord] = []
        with self.lock:
            if tile in self.finished:
                return
            self.finished.add(tile)
            pid = self.home[tile]
            if pid in self.remaining:
                self.remaining[pid] -= 1
            for a in self.tiled.get_anti_dependency(*tile):
                key = (a.i, a.j)
                if key in self.indegree and key not in self.finished:
                    self.indegree[key] -= 1
                    if self.indegree[key] == 0:
                        newly_ready.append(key)
        for t in newly_ready:
            state.push_ready(self.home[t], t)

    def place_done(self, pid: int) -> bool:
        with self.lock:
            return self.remaining.get(pid, 0) <= 0


# -- the tile worker ------------------------------------------------------------------
def execute_tile(state: "ExecutionState", tile: Coord) -> None:
    """Run one tile end to end: place, compute on the plane, account, notify.

    The scheduling strategy places the tile (one decision per tile,
    costed on the tile's halo edges); the compute itself is
    :func:`repro.core.plane.run_tiles` on a batch of one — the executor
    every engine shares.
    """
    ts: TileRunState = state.tiles
    tiled = ts.tiled
    plane = state.plane
    cfg = state.config
    trace = state.trace
    home_place = ts.home[tile]
    if cfg.pace is not None:
        # serving-layer fairness gate: may block until the weighted-fair
        # scheduler grants this tile its turn (see repro.serve.scheduler)
        pace_start = trace.now() if trace is not None else 0.0
        cfg.pace(int(len(tiled.cells_of(*tile)[0])))
        if trace is not None:
            pace_end = trace.now()
            # sub-microsecond grants are uncontended — not a stall
            if pace_end - pace_start > 1e-6:
                trace.record_span(
                    Span(
                        "pace wait", pace_start, pace_end,
                        category="pace", place=home_place,
                    )
                )
    t_start = trace.now() if trace is not None else 0.0
    svc0 = time.perf_counter() if state.straggler is not None else 0.0

    exec_place = state.strategy.choose_place(
        tile,
        home_place,
        plane.owners_of(*tiled.halo_of(*tile)).tolist(),
        state.group.alive_ids(),
        state.rngs[home_place],
        plane.nbytes,
    )
    ((n, transfers),) = _plane.run_tiles(
        plane, tiled, state.app, state.kernel, [tile], exec_place, cfg.sanitize
    )
    if state.chaos is not None and state.chaos.has_throttles:
        # slow-place chaos at tile granularity: the batch analogue of the
        # per-vertex on_execute hook (which the tiled path never reaches)
        state.chaos.throttle_batch(exec_place, n)

    metrics = state.metrics
    for src, dst, nbytes in transfers:
        state.network.record(src, dst, nbytes)
        if metrics.enabled and dst == exec_place:
            metrics.counter(
                "dpx10_halo_fetches_total",
                "batched remote halo fetches (one per tile edge)",
                ("place",),
            ).labels(exec_place).inc()
            metrics.histogram(
                "dpx10_halo_fetch_bytes",
                "bytes moved per batched halo fetch",
                ("transport",),
                buckets=DEFAULT_BYTES_BUCKETS,
            ).labels("store").observe(nbytes)

    with state._completions_lock:
        state.executed_by[exec_place] = state.executed_by.get(exec_place, 0) + n
        prev = state.completions
        state.completions += n
        completed = state.completions
    if metrics.enabled:
        metrics.counter(
            "dpx10_tiles_executed_total",
            "tiles executed per place",
            ("place",),
        ).labels(exec_place).inc()
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
        state.straggler.observe(exec_place, time.perf_counter() - svc0, n)
    if trace is not None:
        r0, c0 = ts.grid.origin(*tile)
        trace.record(
            TraceEvent(
                r0, c0, home_place, exec_place, t_start, trace.now(),
                tile=tile, cells=n,
            )
        )

    if state.injector is not None:
        victims = state.injector.poll_completions(completed)
        if victims:
            for victim in victims:
                state.group.kill(victim)
            raise DeadPlaceException(victims[0])

    ts.on_tile_finished(state, tile)
