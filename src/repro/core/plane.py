"""The tile data plane and the one tile executor.

A tiled run keeps the whole DP matrix in one dense layout — the paper's
single distributed array, in one address space:

* ``values``   — ``(H, W)`` in the app's ``value_dtype`` (``object`` when
  the app declares none);
* ``finished`` — ``(H, W)`` ``uint8`` finish flags;
* ``owners``   — ``int32`` tile-grid map from tile to its home place,
  ``-1`` where inactive.

Only the *backing* of ``values`` differs between engines, and it is an
allocator fact, not an option: a heap ``ndarray`` for the in-process
engines, a ``multiprocessing.shared_memory`` segment for the mp engine,
an ``open_memmap`` file when ``spill_dir`` is set. Every engine runs
its tiles through :func:`run_tiles` against that layout: gather each
halo off the plane into a zeroed buffer the kernel sweeps (tiles that
can share a sweep share it) or run the per-cell loop, write the results
back in place, and report the cross-place transfers the owner map implies. A
place death is :meth:`TilePlane.lose`: zero what the place owned,
re-home it over the survivors, recompute.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from collections.abc import Mapping
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.core.api import DPX10App, Vertex
from repro.core.dag import ResultView
from repro.errors import UnfinishedReadError

__all__ = [
    "HandKernel", "PlaneResults", "TilePlane", "bind_mapping", "kernel_name", "run_tiles",
    "tile_kernel",
]

Coord = Tuple[int, int]
#: one cross-place transfer: ``(source place, destination place, bytes)``
Transfer = Tuple[int, int, int]


class PlaneResults(Mapping):
    """``{(i, j): value}`` over a value plane and its finished mask.

    Membership means "finished" and lookups return Python scalars;
    :meth:`as_bulk` is the vectorized gather the runtime hands to
    :class:`~repro.core.dag.ResultView` so ``Dag.to_array`` needs no
    per-cell loop. Every run binds a live view (readable from inside
    ``compute()``, so reads are sanitizer-checked), which is the result:
    an mp run's segments are not copied out. Snapshots keep copies.
    """

    def __init__(self, values: np.ndarray, finished: np.ndarray, init=None, owner=None) -> None:
        self._values = values
        self._finished = finished  # bool mask
        self._typed = values.dtype != object
        self.init = init  #: the app's ``init_value``, for :meth:`inactive`
        self._owner = owner  # (i, j) -> home place, named by race diagnostics

    def __getitem__(self, key: Coord) -> Any:
        i, j = key
        if _sanitize._active_guards:
            owner = int(self._owner(i, j)) if self._owner is not None else None
            _sanitize.check_read(i, j, owner, source="tile plane")
        h, w = self._finished.shape
        if not (0 <= i < h and 0 <= j < w) or not self._finished[i, j]:
            raise UnfinishedReadError(key)
        value = self._values[i, j]
        return value.item() if self._typed else value

    def __contains__(self, key: object) -> bool:
        try:
            i, j = key  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        h, w = self._finished.shape
        return 0 <= i < h and 0 <= j < w and bool(self._finished[i, j])

    def __iter__(self):
        for i, j in np.argwhere(self._finished):
            yield (int(i), int(j))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._finished))

    def inactive(self, i: int, j: int) -> Any:
        """What inactive cell ``(i, j)`` reads as: the app's ``init_value``,
        or where that is ``None`` the plane's own zero / ``None`` there."""
        value = None if self.init is None else self.init(i, j)
        if value is None:
            value = self._values[i, j]
            return value.item() if self._typed else value
        return value

    def copy(self) -> "PlaneResults":
        """Snapshot stores copy what they keep; a frozen copy is itself."""
        return self

    def as_bulk(self, fill: Any, dtype: Any) -> np.ndarray:
        """``ResultView`` bulk gather: full matrix, ``fill`` where unfinished;
        where ``fill`` cannot apply and ``dtype`` is the plane's own, a
        read-only view of the values, whose mapping (shared segment,
        unlinked spill file) lives as long as the view."""
        values = self._values
        if self._typed and np.dtype(dtype or object) == values.dtype and self._finished.all():
            view = values.view(np.ndarray)
            view.flags.writeable = False
            return view
        out = np.where(self._finished, values, fill)
        return out.astype(dtype or object, copy=False)


def bind_mapping(dag, results: PlaneResults) -> None:
    """Bind ``dag`` to a :class:`PlaneResults` (membership = finished): the
    one binding of every run, in the master and in an mp place alike. A
    cell no run computes reads as :meth:`PlaneResults.inactive`."""
    pattern = weakref.ref(dag)  # the dag holds the binding: no cycle back

    def get(i: int, j: int):
        try:
            return results[(i, j)]
        except UnfinishedReadError:
            if not pattern().contains(i, j) or pattern().is_active(i, j):
                raise
        return results.inactive(i, j)

    dag.bind_results(ResultView(get, results.__contains__, results.as_bulk))


class TilePlane:
    """The dense matrix layout every tiled engine computes against."""

    def __init__(
        self,
        values: np.ndarray,
        finished: np.ndarray,
        grid,
        value_nbytes: int = 8,
    ) -> None:
        self.values = values
        self.finished = finished
        self.grid = grid  #: the run's TileGrid; a tile is the unit of ownership
        self.owners = np.full((grid.nti, grid.ntj), -1, np.int32)
        typed = values.dtype != object
        #: bytes charged per value moved between places: the real item
        #: size on typed planes, the configured model on object planes
        self.nbytes = int(values.dtype.itemsize) if typed else value_nbytes
        self.zero = 0 if typed else None

    @classmethod
    def allocate(
        cls,
        grid,
        dtype: Optional[Any],
        value_nbytes: int = 8,
        spill_dir: Optional[str] = None,
    ) -> "TilePlane":
        """A process-private plane over ``grid``: heap, or a memmap when spilling.

        Object values cannot be memory-mapped and stay in RAM. The spill
        file is unlinked as soon as it is mapped: the mapping keeps the
        blocks alive for as long as results are read, and nothing is
        left to clean up however the run ends.
        """
        shape = (grid.height, grid.width)
        if dtype is None:
            values = np.empty(shape, dtype=object)
        elif spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            fd, path = tempfile.mkstemp(
                dir=spill_dir, prefix="dpx10-plane-", suffix=".npy"
            )
            os.close(fd)
            values = np.lib.format.open_memmap(
                path, mode="w+", dtype=dtype, shape=shape
            )
            os.unlink(path)
        else:
            values = np.zeros(shape, dtype=dtype)
        return cls(values, np.zeros(shape, np.uint8), grid, value_nbytes)

    # -- ownership ------------------------------------------------------------------
    def home(self, dist, tiles) -> None:
        """Home each tile where ``dist`` places its origin cell; ``tiles``
        are ``(ti, tj)`` pairs (an ``(n, 2)`` array: ``np.argwhere``)."""
        ti, tj = np.asarray(tiles, np.int64).reshape(-1, 2).T
        rows, cols = self.grid.edges
        self.owners[ti, tj] = dist.places_of(rows[ti], cols[tj])

    def owners_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Home place of each cell: a cell lives where its tile does."""
        return self.owners[self.grid.tile_of(rows, cols)]

    def lose(
        self,
        dead: Iterable[int],
        dist=None,
        rehome: Optional[Iterable[int]] = None,
    ) -> None:
        """Places died: zero every tile they owned and re-home it.

        Values and flags both reset, so a lost tile reads as never
        computed until its recompute re-materializes it. Tiles of the
        places in ``rehome`` (default: all of ``dead``; recovery on mp
        excludes places a pooled spare replaced) move to their home
        under ``dist``, the distribution over the survivors.
        """
        dead = set(dead)
        rehome = dead if rehome is None else set(rehome)
        owners = self.owners
        for t in map(tuple, np.argwhere(np.isin(owners, list(dead))).tolist()):
            r0, r1, c0, c1 = self.grid.bounds(*t)
            self.values[r0:r1, c0:c1] = self.zero
            self.finished[r0:r1, c0:c1] = 0
            if owners[t] in rehome:
                owners[t] = dist.place_of(r0, c0)

    # -- results and snapshots ----------------------------------------------------------
    def results(self, copy: bool = False, init=None) -> PlaneResults:
        """The plane as a result mapping: a live view, or a frozen copy;
        ``init`` is the app's ``init_value`` (see :meth:`PlaneResults.inactive`).

        The copy takes the flags first — a writer stores a value before
        its flag, so every cell the copy calls finished has its value.
        """
        if copy:
            finished = self.finished.astype(bool)
            return PlaneResults(np.array(self.values), finished, init)
        return PlaneResults(self.values, self.finished.view(bool), init, self.owners_of)

    def restore(self, snapshot: PlaneResults) -> None:
        """Roll the plane back to a :meth:`results` copy."""
        self.values[...] = snapshot._values
        self.finished[...] = snapshot._finished


class HandKernel(NamedTuple):
    """An app's hand-written ``compute_tile`` in the generated-kernel shape."""

    fn: Any
    pads: Tuple[int, int, int, int]
    mode: str = "window"


def tile_kernel(app: DPX10App, tiled, generated=None):
    """The kernel :func:`run_tiles` sweeps tiles with, or ``None``.

    A generated kernel wins over a hand-written ``compute_tile``, which
    runs only where the build yields nothing; window kernels need a
    typed plane and, for hand kernels, a stencil (the window box is the
    stencil's reach). ``None`` selects the per-cell loop.
    """
    typed = app.value_dtype is not None
    if generated is not None and (typed or generated.mode == "cells"):
        return generated
    if (
        typed
        and tiled.stencil_mode
        and type(app).compute_tile is not DPX10App.compute_tile
    ):
        return HandKernel(app.compute_tile, tiled.pads)
    return None


def kernel_name(kernel) -> Optional[str]:
    """What ``RunReport.kernel`` calls a :func:`tile_kernel` result."""
    return None if kernel is None else getattr(kernel, "klass", "hand")


def _compute_cells(plane, base, app, rows, cols, place_id, sanitize) -> list:
    """Per-cell ``compute()`` over a tile in intra-tile wavefront order:
    in-tile values from a local dict, out-of-tile ones off the plane."""
    values = plane.values
    typed = values.dtype != object
    local: dict = {}
    get_dep, is_active = base.get_dependency, base.is_active
    for i, j in zip(rows.tolist(), cols.tolist()):
        declared = get_dep(i, j)
        verts: List[Vertex] = []
        for d in declared:
            key = (d.i, d.j)
            if not is_active(*key):
                continue
            if key in local:
                verts.append(Vertex(d.i, d.j, local[key]))
            else:
                value = values[key]
                verts.append(Vertex(d.i, d.j, value.item() if typed else value))
        if sanitize:
            with _sanitize.compute_guard(
                (i, j), ((d.i, d.j) for d in declared), place_id
            ):
                local[(i, j)] = app.compute(i, j, verts)
        else:
            local[(i, j)] = app.compute(i, j, verts)
    return list(local.values())


def _store(plane: TilePlane, rows: np.ndarray, cols: np.ndarray, out) -> None:
    """Write a tile's cells back: every value first, then the flags."""
    if plane.values.dtype != object:
        plane.values[rows, cols] = out
    else:
        # composite values (arrays, tuples) must land as single objects
        for i, j, value in zip(rows.tolist(), cols.tolist(), out):
            plane.values[i, j] = value
    plane.finished[rows, cols] = 1


def _transfers(plane, homes, places, ncells, k, owners) -> List[List[Transfer]]:
    """Per tile: one halo read per remote producing place (``k``/``owners``:
    the batch's halo cells' tiles and homes), then any write-back home."""
    out: List[List[Transfer]] = [[] for _ in places]
    at = np.asarray(places, np.int64)
    remote = owners != at[k]
    if remote.any():
        span = int(max(owners.max(), at.max())) + 1
        counts = np.bincount(k[remote] * span + owners[remote], minlength=len(at) * span)
        for key in np.flatnonzero(counts).tolist():
            t, p = divmod(key, span)
            out[t].append((p, places[t], int(counts[key]) * plane.nbytes))
    for t in np.flatnonzero((homes != at) & (ncells > 0)).tolist():
        out[t].append((places[t], int(homes[t]), int(ncells[t]) * plane.nbytes))
    return out


def run_tiles(
    plane: TilePlane,
    tiled,
    app: DPX10App,
    kernel,
    tiles: Sequence[Coord],
    places: Sequence[int],
    halo: Tuple[np.ndarray, np.ndarray, np.ndarray],
    sanitize: bool = False,
) -> List[Tuple[int, List[Transfer]]]:
    """Compute mutually independent tiles in place, ``tiles[k]`` at ``places[k]``.

    ``tiles`` must not depend on one another — one tile, or (part of) a
    level of the tile DAG, at any mix of places: a tile's place decides
    its transfers and sanitizer guard, not its sweep. ``halo`` is the
    batch's :meth:`~repro.core.tiling.TiledDag.halos_of`, which the
    caller builds once and reads too. Returns, per tile and in order,
    its cell count and the cross-place transfers the owner map implies
    (one halo read per remote producing place, plus the write-back when
    the tile's place is not its home).

    The batch, not the tile, is the unit of every step. Window kernels
    run on zeroed buffers with only the halo scattered in, so values a
    recovery left behind cannot leak in. Tiles of equal window geometry
    share one prelude call (``fn.prepare``); of equal geometry *and*
    boundary profile, one stack in the kernel's ``fn.layout`` (else the
    window stack), filled by one gather off the plane and one scatter,
    one sweep (``fn.sweep``) and values, then flags, out of its slots.
    A top-row or left-column tile whose leading rows / columns, as deep
    as the kernel's own pads, are the DP's initial condition
    (``fn.peel``) takes those from the prelude and sweeps the rest in
    the interior tiles' stack. Other window kernels see one window per
    call; cells-mode kernels and the per-cell loop run tile by tile.
    """
    ti, tj = np.array(tiles, np.int64).reshape(-1, 2).T
    ncells = tiled.tile_cells[ti, tj]
    live = np.flatnonzero(ncells)
    k, hrows, hcols = halo
    work = ncells[k] > 0  # a tile with no active cell reads nothing
    k, hrows, hcols = k[work], hrows[work], hcols[work]
    done = list(zip(ncells.tolist(), _transfers(
        plane, plane.owners[ti, tj], places, ncells, k, plane.owners_of(hrows, hcols)
    )))
    at = [places[t] for t in live.tolist()]
    if kernel is not None and kernel.mode == "window":
        # the window branch numbers the tiles with work alone
        _run_windows(plane, tiled, app, kernel, [tiles[t] for t in live.tolist()],
                     ncells[live].tolist(), at,
                     (np.cumsum(ncells > 0)[k] - 1, hrows, hcols), sanitize)
        return done
    ends = np.searchsorted(k, np.arange(len(tiles) + 1)).tolist()
    for t, place_id in zip(live.tolist(), at):
        rows, cols = tiled.cells_of(*tiles[t])
        if kernel is not None:
            # tree-level kernels map active cells straight to values
            hr, hc = hrows[ends[t] : ends[t + 1]], hcols[ends[t] : ends[t + 1]]
            halo = dict(zip(zip(hr.tolist(), hc.tolist()), plane.values[hr, hc].tolist()))
            out = kernel.fn.run_cells(rows, cols, halo)
        else:
            out = _compute_cells(plane, tiled.base, app, rows, cols, place_id, sanitize)
        _store(plane, rows, cols, out)
    return done


def _run_windows(plane, tiled, app, kernel, tiles, ncells, places, halo, sanitize) -> None:
    """:func:`run_tiles`' window branch, over tiles with work and their
    :meth:`~repro.core.tiling.TiledDag.halos_of`."""
    values, base = plane.values, tiled.base
    H, W, th, tw = base.height, base.width, tiled.grid.tile_h, tiled.grid.tile_w
    prepare = getattr(kernel.fn, "prepare", None)
    peel = getattr(kernel.fn, "peel", None)
    layout = getattr(kernel.fn, "layout", None) or (  # else the batch-first window stack
        lambda nb, wh, ww, *_: ((nb, wh, ww), np.arange(wh * ww), wh * ww))
    # a generated kernel's window covers its inferred footprint box
    # as well as the declared-stencil halo strips
    pt, pb, pl, pr = (max(a, d) for a, d in zip(kernel.pads, tiled.pads))
    boxes, peeled = [], []  # peeled: (tile, row, column, strip values)
    geometry: Dict[tuple, List[int]] = {}
    for t, tile in enumerate(tiles):
        r0, r1, c0, c1 = tiled.grid.bounds(*tile)
        h, w = r1 - r0, c1 - c0
        # peel no deeper than the kernel's own pads: a window row or column
        # past its footprint has no slot of its own in the kernel's layout
        k = kernel.pads[0] if r0 == 0 and h > kernel.pads[0] else 0
        l = kernel.pads[2] if c0 == 0 and w > kernel.pads[2] else 0
        strips = peel(r0, c0, h, w, k, l) if peel and (k or l) else None
        if not strips:
            k = l = 0
        peeled += [(t, r0 + i, c0 + j, strip) for i, j, strip in strips or ()]
        # the rest of a peeled tile sweeps as interior rows: exactly, on a
        # grid's leading tile, else as its rectangle shifted by (k, l), whose
        # cells past the tile read zeros and are discarded; an axis where a
        # dependency reaches past the shift, or the matrix ends first,
        # sweeps the remainder alone
        sr0, sh = r0 + k, (h - k if h - k == th or pb or r1 + k > H else h)
        sc0, sw = c0 + l, (w - l if w - l == tw or pr or c1 + l > W else w)
        wr0, wr1 = max(0, sr0 - pt), min(H, sr0 + sh + pb)
        wc0, wc1 = max(0, sc0 - pl), min(W, sc0 + sw + pr)
        boxes.append((r0, r1, c0, c1, wr0, wc0, wr1 - wr0, wc1 - wc0, sr0, sc0))
        geometry.setdefault((sh, sw, wr1 - wr0, wc1 - wc0, sr0 - wr0, sc0 - wc0), []).append(t)
    # per shared sweep, a stack in one zeroed buffer for the batch, laid out as
    # its kernel sweeps it (fn.layout): cell (r, c) of tile t is at(t, r, c)
    groups, maps, stacks = [], [], [0]
    woff, moff, ww = (np.empty(len(tiles), np.int64) for _ in range(3))
    for geo, members in geometry.items():
        if prepare is not None:
            origins = np.array([boxes[t][8:] for t in members]).T
            profiles, leaves = prepare(origins[0], origins[1], geo[0], geo[1])
        else:  # a kernel that sweeps one window per call gets singleton groups
            profiles, leaves = [(t,) for t in members], None
        split: Dict[tuple, List[int]] = {}
        for j, profile in enumerate(profiles):
            split.setdefault(profile, []).append(j)
        for profile, js in split.items():
            share = leaves.select(js) if leaves is not None and len(js) < len(members) else leaves
            group = [members[j] for j in js]
            shape, slots, lane = layout(len(group), *geo[2:], *geo[:2])
            woff[group], ww[group] = stacks[-1] + lane * np.arange(len(group)), geo[3]
            window_at = [boxes[t][4] * geo[3] + boxes[t][5] for t in group]
            moff[group] = sum(map(len, maps)) - np.array(window_at)
            groups.append((geo, profile, group, share, shape))
            maps.append(slots)
            stacks.append(stacks[-1] + int(np.prod(shape)))
    slots = np.concatenate([np.empty(0, np.int64), *maps])  # a batch may have no work

    def at(t, rows, cols):
        return woff[t] + slots[moff[t] + rows * ww[t] + cols]

    # the halo off the plane and the peeled strips, in one scatter
    hk, hrows, hcols = halo
    if not tiled.stencil_mode:
        # a dag may declare halo cells outside the window box; the
        # kernel provably never reads them, so drop them
        box = np.array([b[4:8] for b in boxes]).reshape(-1, 4)[hk].T
        ins = (hrows >= box[0]) & (hrows < box[0] + box[2])
        ins &= (hcols >= box[1]) & (hcols < box[1] + box[3])
        hk, hrows, hcols = hk[ins], hrows[ins], hcols[ins]
    dst, src = [at(hk, hrows, hcols)], [values.take(hrows * W + hcols)]
    for t, r, c, strip in peeled:
        rows, cols = np.indices(strip.shape).reshape(2, -1)
        dst.append(at(t, rows + r, cols + c))
        src.append(strip.ravel())
    buf = np.zeros(stacks[-1], dtype=values.dtype)
    buf[np.concatenate(dst)] = np.concatenate(src)

    for g, ((gh, gw, gwh, gww, oi, oj), profile, members, leaves, shape) in enumerate(groups):
        stack = buf[stacks[g] : stacks[g + 1]].reshape(shape)
        if prepare is not None:
            kernel.fn.sweep(profile, leaves, stack, oi, oj, gh, gw)
        elif not kernel.fn(boxes[members[0]][0], boxes[members[0]][2], stack[0], oi, oj, gh, gw):
            # the kernel declined this window (a hand kernel's tile is unpeeled)
            rows, cols = tiled.cells_of(*tiles[members[0]])
            out = _compute_cells(plane, base, app, rows, cols, places[members[0]], sanitize)
            _store(plane, rows, cols, out)
            continue
        # each tile's values out of its slots, then its flags; a whole-rectangle
        # tile lands as a slice store (faster than one fancy store of the stack)
        grid = maps[g].reshape(gwh, gww)
        for t in members:
            r0, r1, c0, c1, wr0, wc0, *_ = boxes[t]
            if ncells[t] < (r1 - r0) * (c1 - c0):  # partly active: cell by cell
                rows, cols = tiled.cells_of(*tiles[t])
                _store(plane, rows, cols, buf[at(t, rows, cols)])
                continue
            box = grid[r0 - wr0 : r1 - wr0, c0 - wc0 : c1 - wc0]
            values[r0:r1, c0:c1] = buf[woff[t] :].take(box)
            plane.finished[r0:r1, c0:c1] = 1
