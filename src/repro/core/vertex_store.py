"""Per-place vertex state (paper section VI-B).

"Each vertex in a DAG has a unique 2D coordinate marked as (i, j), and an
indegree field indicates the unfinished number of its predecessors.
Vertices with zero-indegree are schedulable. In addition, a finish flag is
kept for each vertex to identify its status and to help recover the result
after a failure happens."

A :class:`VertexStore` holds exactly that, for the cells one place owns,
in structure-of-arrays form: a value array (typed numpy when the app
declares ``value_dtype``, else an object array), an ``int32`` indegree
array and a ``bool`` finished array. The arrays live in the owning
:class:`~repro.apgas.place.Place`'s storage, so place death makes them
unreachable and accesses raise ``DeadPlaceException``.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.apgas.place import Place
from repro.core.dag import Dag
from repro.dist.dist import Dist
from repro.errors import DPX10Error

__all__ = ["VertexStore", "build_stores"]

Coord = Tuple[int, int]


class VertexStore:
    """State for the vertices homed at one place.

    Inactive cells are born finished with the app's ``init_value`` so they
    never schedule — the paper's "set the unneeded vertices as finished"
    initialization. ``finished_active`` counts only active completions and
    drives worker termination.
    """

    def __init__(
        self,
        place: Place,
        dag: Dag,
        dist: Dist,
        value_dtype: Optional[Any],
        init_value_fn,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.place = place
        self.place_id = place.id
        # errors name cells in domain terms ("node 7" on a tree domain)
        self._describe = dag.describe_cell
        coords: List[Coord] = list(dist.owned_coords(place.id))
        self._slot: Dict[Coord, int] = {c: k for k, c in enumerate(coords)}
        self.coords = coords
        n = len(coords)
        self._spill_path: Optional[str] = None
        if value_dtype is None:
            # object values cannot be memory-mapped; they stay in RAM
            values = np.empty(n, dtype=object)
        elif spill_dir is not None and n > 0:
            values = self._open_spill(spill_dir, value_dtype, n)
        else:
            values = np.zeros(n, dtype=value_dtype)
        indegree = np.zeros(n, dtype=np.int32)
        finished = np.zeros(n, dtype=bool)
        active = np.ones(n, dtype=bool)

        # fast path: stencil patterns supply closed-form indegrees and a
        # vectorized activity mask, avoiding O(cells x deps) Python calls
        bulk_done = False
        if n > 0:
            rows = np.fromiter((c[0] for c in coords), dtype=np.int64, count=n)
            cols = np.fromiter((c[1] for c in coords), dtype=np.int64, count=n)
            bulk = dag.bulk_indegrees(rows, cols)
            if bulk is not None:
                mask = dag.is_active_array(rows, cols)
                assert mask is not None
                indegree[:] = bulk
                active[:] = mask
                finished[:] = ~mask
                bulk_done = True

        if not bulk_done:
            for k, (i, j) in enumerate(coords):
                if dag.is_active(i, j):
                    indegree[k] = sum(
                        1
                        for d in dag.get_dependency(i, j)
                        if dag.is_active(d.i, d.j)
                    )
                else:
                    active[k] = False
                    finished[k] = True

        active_count = int(active.sum())
        for k in np.nonzero(~active)[0]:
            i, j = coords[k]
            iv = init_value_fn(i, j)
            if iv is not None or value_dtype is None:
                values[k] = iv if iv is not None else None

        self.values = values
        self.indegree = indegree
        self.finished = finished
        self.active = active
        self.active_count = active_count
        self.finished_active = 0
        self.lock = threading.Lock()
        # keep the arrays reachable through the place partition so that
        # place death semantically destroys them
        place.put("vertex_store", self)

    # -- disk spill (paper future work) -------------------------------------------
    def _open_spill(self, spill_dir: str, dtype: Any, n: int) -> np.ndarray:
        """Back the value array with an on-disk ``.npy`` memmap."""
        os.makedirs(spill_dir, exist_ok=True)
        fd, path = tempfile.mkstemp(
            dir=spill_dir, prefix=f"dpx10-place{self.place_id}-", suffix=".npy"
        )
        os.close(fd)
        self._spill_path = path
        return np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=(n,))

    @property
    def spilled(self) -> bool:
        """Whether vertex values live on disk instead of RAM."""
        return self._spill_path is not None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        path = getattr(self, "_spill_path", None)
        if path is not None:
            try:
                self.values._mmap.close()  # type: ignore[union-attr]
            except Exception:
                pass
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- slot lookup -----------------------------------------------------------
    def slot(self, i: int, j: int) -> int:
        return self._slot[(i, j)]

    def owns(self, i: int, j: int) -> bool:
        return (i, j) in self._slot

    @property
    def size(self) -> int:
        return len(self.coords)

    # -- liveness-checked accessors ----------------------------------------------
    def _check(self) -> None:
        self.place.check_alive()

    def get_result(self, i: int, j: int) -> Any:
        self._check()
        if _sanitize._active_guards:
            # sanitized run: reads issued during a compute() must stay
            # within that cell's declared dependency list
            _sanitize.check_read(i, j, owner_place=self.place_id)
        k = self._slot[(i, j)]
        if not self.finished[k]:
            raise DPX10Error(f"vertex {self._describe(i, j)} is not finished")
        return self.values[k]

    def set_result(self, i: int, j: int, value: Any) -> None:
        self._check()
        k = self._slot[(i, j)]
        self.values[k] = value

    def is_finished(self, i: int, j: int) -> bool:
        self._check()
        return bool(self.finished[self._slot[(i, j)]])

    def mark_finished(self, i: int, j: int) -> None:
        """Set the finish flag; counts toward active completions once."""
        self._check()
        k = self._slot[(i, j)]
        with self.lock:
            if not self.finished[k]:
                self.finished[k] = True
                if self.active[k]:
                    self.finished_active += 1

    def dec_indegree(self, i: int, j: int) -> bool:
        """Decrement; ``True`` when the vertex just became schedulable."""
        self._check()
        k = self._slot[(i, j)]
        with self.lock:
            self.indegree[k] -= 1
            return self.indegree[k] == 0 and not self.finished[k]

    def all_done(self) -> bool:
        self._check()
        with self.lock:
            return self.finished_active >= self.active_count

    # -- bulk views (used by init, recovery and result binding) --------------------
    def zero_indegree_unfinished(self) -> List[Coord]:
        """Initially schedulable cells, in row-major order."""
        self._check()
        return [
            c
            for k, c in enumerate(self.coords)
            if self.active[k] and not self.finished[k] and self.indegree[k] == 0
        ]

    def finished_items(self) -> Iterator[Tuple[Coord, Any]]:
        """Snapshot of (coord, value) for every finished *active* cell."""
        self._check()
        with self.lock:
            done = [
                (c, self.values[k])
                for k, c in enumerate(self.coords)
                if self.finished[k] and self.active[k]
            ]
        return iter(done)


def build_stores(
    group,
    dag: Dag,
    dist: Dist,
    value_dtype: Optional[Any],
    init_value_fn,
    spill_dir: Optional[str] = None,
) -> Dict[int, VertexStore]:
    """One store per place of ``dist`` (all must be alive)."""
    return {
        pid: VertexStore(
            group.check_alive(pid),
            dag,
            dist,
            value_dtype,
            init_value_fn,
            spill_dir,
        )
        for pid in dist.place_ids
    }
