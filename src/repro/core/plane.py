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
halo off the plane, run the kernel on zeroed windows (tiles that can
share a sweep share it) or the per-cell loop, write the results back in
place, and report the cross-place transfers the owner map implies. A
place death is :meth:`TilePlane.lose`: zero what the place owned,
re-home it over the survivors, recompute.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Mapping
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.core.api import DPX10App, Vertex

__all__ = ["HandKernel", "PlaneResults", "TilePlane", "kernel_name", "run_tiles", "tile_kernel"]

Coord = Tuple[int, int]
#: one cross-place transfer: ``(source place, destination place, bytes)``
Transfer = Tuple[int, int, int]


class PlaneResults(Mapping):
    """``{(i, j): value}`` over a value plane and its finished mask.

    Duck-compatible with the dict the pickled mp transport returns —
    membership means "finished", lookups return Python scalars — plus
    :meth:`as_bulk`, the vectorized gather the runtime hands to
    :class:`~repro.core.dag.ResultView` so ``Dag.to_array`` needs no
    per-cell loop. The in-process engines bind a live view (readable
    from inside ``compute()``, so reads are sanitizer-checked); the mp
    engine and snapshots bind copies.
    """

    def __init__(self, values: np.ndarray, finished: np.ndarray) -> None:
        self._values = values
        self._finished = finished  # bool mask
        self._typed = values.dtype != object

    def __getitem__(self, key: Coord) -> Any:
        i, j = key
        if _sanitize._active_guards:
            _sanitize.check_read(i, j, source="tile plane")
        h, w = self._finished.shape
        if not (0 <= i < h and 0 <= j < w) or not self._finished[i, j]:
            raise KeyError(key)
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

    def copy(self) -> "PlaneResults":
        """Snapshot stores copy what they keep; a frozen copy is itself."""
        return self

    def as_bulk(self, fill: Any, dtype: Any) -> np.ndarray:
        """``ResultView`` bulk gather: full matrix, ``fill`` where unfinished."""
        out = np.full(self._values.shape, fill, dtype=dtype or object)
        out[self._finished] = self._values[self._finished]
        return out


class TilePlane:
    """The dense matrix layout every tiled engine computes against."""

    def __init__(
        self,
        values: np.ndarray,
        finished: np.ndarray,
        unit: Tuple[int, int],
        value_nbytes: int = 8,
        owners: Optional[np.ndarray] = None,
    ) -> None:
        self.values = values
        self.finished = finished
        #: cell extent ``(uh, uw)`` of one ownership unit
        self.unit = unit
        if owners is None:
            h, w = values.shape
            owners = np.full((-(-h // unit[0]), -(-w // unit[1])), -1, np.int32)
        self.owners = owners
        typed = values.dtype != object
        #: bytes charged per value moved between places: the real item
        #: size on typed planes, the configured model on object planes
        self.nbytes = int(values.dtype.itemsize) if typed else value_nbytes
        self._zero = 0 if typed else None

    @classmethod
    def allocate(
        cls,
        shape: Tuple[int, int],
        dtype: Optional[Any],
        unit: Tuple[int, int],
        value_nbytes: int = 8,
        spill_dir: Optional[str] = None,
    ) -> "TilePlane":
        """A process-private plane: heap, or a memmap when spilling.

        Object values cannot be memory-mapped and stay in RAM. The spill
        file is unlinked as soon as it is mapped: the mapping keeps the
        blocks alive for as long as results are read, and nothing is
        left to clean up however the run ends.
        """
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
        return cls(values, np.zeros(shape, np.uint8), unit, value_nbytes)

    # -- ownership ------------------------------------------------------------------
    def home(self, dist, units: Iterable[Coord]) -> None:
        """Home each unit where ``dist`` places its origin cell."""
        uh, uw = self.unit
        for u in units:
            self.owners[u] = dist.place_of(u[0] * uh, u[1] * uw)

    def owners_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Home place of each cell: a cell lives where its unit does."""
        return self.owners[rows // self.unit[0], cols // self.unit[1]]

    def lose(
        self,
        dead: Iterable[int],
        dist=None,
        rehome: Optional[Iterable[int]] = None,
    ) -> List[Coord]:
        """Places died: zero every unit they owned and re-home it.

        Values and flags both reset, so a lost unit reads as never
        computed until its recompute re-materializes it. Units of the
        places in ``rehome`` (default: all of ``dead``; the mp master
        excludes places a pooled spare replaced) move to their home
        under ``dist``, the distribution over the survivors. Returns the
        lost units.
        """
        dead = set(dead)
        rehome = dead if rehome is None else set(rehome)
        uh, uw = self.unit
        owners = self.owners
        lost = [
            (int(a), int(b)) for a, b in np.argwhere(np.isin(owners, list(dead)))
        ]
        for u in lost:
            r0, c0 = u[0] * uh, u[1] * uw
            self.values[r0 : r0 + uh, c0 : c0 + uw] = self._zero
            self.finished[r0 : r0 + uh, c0 : c0 + uw] = 0
            if owners[u] in rehome:
                owners[u] = dist.place_of(r0, c0)
        return lost

    # -- results and snapshots ----------------------------------------------------------
    def results(self, copy: bool = False) -> PlaneResults:
        """The plane as a result mapping: a live view, or a frozen copy.

        The copy takes the flags first — a writer stores a value before
        its flag, so every cell the copy calls finished has its value.
        """
        if copy:
            finished = self.finished.astype(bool)
            return PlaneResults(np.array(self.values), finished)
        return PlaneResults(self.values, self.finished.view(bool))

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


def run_tiles(
    plane: TilePlane,
    tiled,
    app: DPX10App,
    kernel,
    tiles: Sequence[Coord],
    places: Sequence[int],
    sanitize: bool = False,
) -> List[Tuple[int, List[Transfer]]]:
    """Compute mutually independent tiles in place, ``tiles[k]`` at ``places[k]``.

    ``tiles`` must not depend on one another — one tile, or (part of) a
    level of the tile DAG, at any mix of places: a tile's place decides
    its transfers and sanitizer guard, not its sweep. Returns, per tile
    and in order, the number of cells computed and the cross-place
    transfers the execution implies under the owner map: one halo read
    per remote producing place, plus the write-back when the tile's
    place is not its home.

    Window kernels run on a zeroed window with only the halo scattered
    in — never a raw plane copy, so values a recovery left behind in
    unfinished cells cannot leak into a window. Where the kernel can
    sweep a stack of windows at once (``fn.prepare`` / ``fn.sweep``: every
    generated window kernel), tiles of equal geometry *and* equal boundary
    profile share one sweep: an interior tile never pays for the masks
    of the boundary tile next to it, and a tile alone in its group runs
    exactly what it ran before batching existed. A top-row or left-column
    tile whose leading pads rows / columns are the DP's initial condition
    (``fn.peel``) takes those from the prelude and sweeps the rest, where
    it can at interior geometry, in the interior tiles' stack. Every
    other kernel sees one window per call. Each tile's values (peeled
    ones too) land before its finish flags, whatever else its batch
    still has to write.
    """
    values = plane.values
    base = tiled.base
    windowed = kernel is not None and kernel.mode == "window"
    prepare = getattr(kernel.fn, "prepare", None) if windowed else None
    peel = getattr(kernel.fn, "peel", None) if windowed else None
    if windowed:
        # a generated kernel's window covers its inferred footprint box
        # as well as the declared-stencil halo strips
        pt, pb, pl, pr = (max(a, d) for a, d in zip(kernel.pads, tiled.pads))
    done: List[Tuple[int, List[Transfer]]] = []
    groups: Dict[tuple, List[tuple]] = {}
    for (ti, tj), place_id in zip(tiles, places):
        rows, cols = tiled.cells_of(ti, tj)
        n = len(rows)
        if n == 0:
            done.append((0, []))
            continue
        hrows, hcols = tiled.halo_of(ti, tj)
        transfers: List[Transfer] = []
        if len(hrows):
            strip = plane.owners_of(hrows, hcols)
            remote = strip[strip != place_id]
            if len(remote):
                producers, counts = np.unique(remote, return_counts=True)
                transfers = [
                    (int(p), place_id, int(c) * plane.nbytes)
                    for p, c in zip(producers, counts)
                ]
        home = int(plane.owners[ti, tj])
        if home != place_id:
            transfers.append((place_id, home, n * plane.nbytes))
        done.append((n, transfers))
        if not windowed:
            if kernel is not None:
                # tree-level kernels map active cells straight to values
                halo = dict(
                    zip(
                        zip(hrows.tolist(), hcols.tolist()),
                        values[hrows, hcols].tolist(),
                    )
                )
                out = kernel.fn.run_cells(rows, cols, halo)
            else:
                out = _compute_cells(plane, base, app, rows, cols, place_id, sanitize)
            _store(plane, rows, cols, out)
            continue
        r0, r1, c0, c1 = tiled.grid.bounds(ti, tj)
        h, w = r1 - r0, c1 - c0
        # the rest of a peeled tile sweeps as its rectangle shifted by
        # (k, l), whose cells past the tile read zeros and are discarded;
        # an axis where a dependency reaches past the shift, or the matrix
        # ends first, sweeps the remainder alone
        k = pt if r0 == 0 and h > pt else 0
        l = pl if c0 == 0 and w > pl else 0
        strips = peel(r0, c0, h, w, k, l) if peel and (k or l) else None
        if strips is None:
            k = l = 0
        sr0, sh = r0 + k, (h if pb == 0 and r1 + k <= base.height else h - k)
        sc0, sw = c0 + l, (w if pr == 0 and c1 + l <= base.width else w - l)
        wr0, wr1 = max(0, sr0 - pt), min(base.height, sr0 + sh + pb)
        wc0, wc1 = max(0, sc0 - pl), min(base.width, sc0 + sw + pr)
        # a dag may declare halo cells outside the window box; the
        # kernel provably never reads them, so drop them
        ins = (hrows >= wr0) & (hrows < wr1) & (hcols >= wc0) & (hcols < wc1)
        hr, hc = hrows[ins], hcols[ins]
        halo = (hr - wr0, hc - wc0, values[hr, hc])
        peeled = [(r0 + i - wr0, c0 + j - wc0, v) for i, j, v in strips or ()]
        # a kernel that sweeps one window per call gets singleton groups
        profile, leaves = prepare(sr0, sc0, sh, sw) if prepare else ((ti, tj), None)
        key = (sh, sw, wr1 - wr0, wc1 - wc0, sr0 - wr0, sc0 - wc0, profile)
        box = (r0, r1, c0, c1, wr0, wc0, place_id)
        groups.setdefault(key, []).append((rows, cols, box, halo, peeled, leaves))

    for (h, w, wh, ww, oi, oj, profile), jobs in groups.items():
        windows = np.zeros((len(jobs), wh, ww), dtype=values.dtype)
        for window, (*_, (hi, hj, hvalues), peeled, _leaves) in zip(windows, jobs):
            window[hi, hj] = hvalues
            for i, j, strip in peeled:
                window[i : i + strip.shape[0], j : j + strip.shape[1]] = strip
        if prepare is not None:
            kernel.fn.sweep(profile, [job[-1] for job in jobs], windows, oi, oj, h, w)
            swept = True
        else:
            r0, _r1, c0, *_ = jobs[0][2]  # a hand kernel's tile is unpeeled
            swept = kernel.fn(r0, c0, windows[0], oi, oj, h, w)
        for window, (rows, cols, (r0, r1, c0, c1, wr0, wc0, place_id), *_) in zip(windows, jobs):
            if not swept:  # the kernel declined this window
                out = _compute_cells(plane, base, app, rows, cols, place_id, sanitize)
                _store(plane, rows, cols, out)
            elif len(rows) == (r1 - r0) * (c1 - c0):
                # the tile is its rectangle: two slice stores
                values[r0:r1, c0:c1] = window[r0 - wr0 : r1 - wr0, c0 - wc0 : c1 - wc0]
                plane.finished[r0:r1, c0:c1] = 1
            else:
                _store(plane, rows, cols, window[rows - wr0, cols - wc0])
    return done
