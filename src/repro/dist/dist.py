"""Distributions: mappings from 2-D indices to places (X10's ``Dist``).

The paper: "All vertices are stored in a distributed array (*DistArray*
class) ... How to distribute them among the places can be flexibly defined
by using a *Dist* structure. By default vertices are spliced and
distributed along with column." (section VI-B); the recovery example in
Figure 6 divides by row instead, and the Refinements section lets the user
supply a custom distribution for locality.

Provided kinds:

* ``block_cols`` — contiguous column bands (the paper's default);
* ``block_rows`` — contiguous row bands (Figure 6);
* ``cyclic_rows`` / ``cyclic_cols`` — round-robin striping;
* ``block_cyclic`` — fixed-size blocks dealt round-robin;
* ``custom`` — arbitrary user mapping function.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.region import Region2D
from repro.errors import DistributionError
from repro.util.validation import require

__all__ = ["Dist"]

MapFn = Callable[[int, int], int]


def _check_places(place_ids: Sequence[int]) -> List[int]:
    ids = list(place_ids)
    require(len(ids) >= 1, "a Dist needs at least one place", DistributionError)
    require(len(set(ids)) == len(ids), "duplicate place ids in Dist", DistributionError)
    return ids


class Dist:
    """An immutable index→place mapping over a rectangular region.

    Construct via the classmethod factories; ``place_ids`` is the ordered
    list of places the distribution maps onto (normally the alive places of
    the group at creation time — recovery builds a new ``Dist`` over the
    survivors).
    """

    def __init__(
        self,
        region: Region2D,
        place_ids: Sequence[int],
        map_fn: MapFn,
        kind: str,
        partitions: Optional[Dict[int, List[Region2D]]] = None,
    ) -> None:
        require(
            len(place_ids) >= 1,
            "a Dist needs at least one place",
            DistributionError,
        )
        require(
            len(set(place_ids)) == len(place_ids),
            "duplicate place ids in Dist",
            DistributionError,
        )
        self.region = region
        self.place_ids: Tuple[int, ...] = tuple(place_ids)
        self._map_fn = map_fn
        self.kind = kind
        self._partitions = partitions

    # -- factories ------------------------------------------------------------
    @classmethod
    def block_rows(cls, region: Region2D, place_ids: Sequence[int]) -> "Dist":
        ids = _check_places(place_ids)
        bands = region.split_rows(len(ids))
        bounds = [b.row1 for b in bands]

        def map_fn(i: int, j: int) -> int:
            for k, hi in enumerate(bounds):
                if i < hi:
                    return ids[k]
            raise DistributionError(f"({i}, {j}) outside {region}")

        parts = {pid: [band] for pid, band in zip(ids, bands)}
        return cls(region, ids, map_fn, "block_rows", parts)

    @classmethod
    def block_cols(cls, region: Region2D, place_ids: Sequence[int]) -> "Dist":
        ids = _check_places(place_ids)
        bands = region.split_cols(len(ids))
        bounds = [b.col1 for b in bands]

        def map_fn(i: int, j: int) -> int:
            for k, hi in enumerate(bounds):
                if j < hi:
                    return ids[k]
            raise DistributionError(f"({i}, {j}) outside {region}")

        parts = {pid: [band] for pid, band in zip(ids, bands)}
        return cls(region, ids, map_fn, "block_cols", parts)

    @classmethod
    def cyclic_rows(cls, region: Region2D, place_ids: Sequence[int]) -> "Dist":
        ids = _check_places(place_ids)
        n = len(ids)
        r0 = region.row0

        def map_fn(i: int, j: int) -> int:
            return ids[(i - r0) % n]

        return cls(region, ids, map_fn, "cyclic_rows")

    @classmethod
    def cyclic_cols(cls, region: Region2D, place_ids: Sequence[int]) -> "Dist":
        ids = _check_places(place_ids)
        n = len(ids)
        c0 = region.col0

        def map_fn(i: int, j: int) -> int:
            return ids[(j - c0) % n]

        return cls(region, ids, map_fn, "cyclic_cols")

    @classmethod
    def block_cyclic(
        cls,
        region: Region2D,
        place_ids: Sequence[int],
        block_h: int,
        block_w: int,
    ) -> "Dist":
        """Blocks of ``block_h x block_w`` dealt round-robin in row-major order."""
        require(block_h >= 1 and block_w >= 1, "block dims must be >= 1")
        ids = _check_places(place_ids)
        n = len(ids)
        r0, c0 = region.row0, region.col0
        blocks_per_row = -(-region.width // block_w)  # ceil div

        def map_fn(i: int, j: int) -> int:
            bi = (i - r0) // block_h
            bj = (j - c0) // block_w
            return ids[(bi * blocks_per_row + bj) % n]

        return cls(region, ids, map_fn, "block_cyclic")

    @classmethod
    def block_flat(cls, region: Region2D, place_ids: Sequence[int]) -> "Dist":
        """Contiguous row-major cell ranges of near-equal size.

        This is the cell-balanced redistribution the paper's Figure 6 shows
        after a failure: 12 vertices over 2 survivors become 6 cells each,
        splitting a row between places where needed.
        """
        ids = _check_places(place_ids)
        n = len(ids)
        total = region.size
        base, extra = divmod(total, n)
        # place k owns flat indices [starts[k], starts[k+1])
        starts = [0]
        for k in range(n):
            starts.append(starts[-1] + base + (1 if k < extra else 0))
        width = region.width
        r0, c0 = region.row0, region.col0

        def map_fn(i: int, j: int) -> int:
            flat = (i - r0) * width + (j - c0)
            # binary search over at most a handful of places is overkill;
            # linear scan keeps it simple and the place count small
            for k in range(n):
                if flat < starts[k + 1]:
                    return ids[k]
            raise DistributionError(f"({i}, {j}) outside {region}")

        return cls(region, ids, map_fn, "block_flat")

    @classmethod
    def custom(
        cls,
        region: Region2D,
        place_ids: Sequence[int],
        map_fn: MapFn,
    ) -> "Dist":
        """A user-supplied mapping (the Refinements 'Distribution of DAG')."""
        ids = _check_places(place_ids)
        valid = frozenset(ids)

        def checked(i: int, j: int) -> int:
            pid = map_fn(i, j)
            if pid not in valid:
                raise DistributionError(
                    f"custom map sent ({i}, {j}) to non-member place {pid}"
                )
            return pid

        return cls(region, ids, checked, "custom")

    @classmethod
    def make(
        cls,
        kind: str,
        region: Region2D,
        place_ids: Sequence[int],
        block_h: int = 1,
        block_w: int = 1,
    ) -> "Dist":
        """Build a distribution by kind name (used by config and recovery)."""
        factories = {
            "block_rows": lambda: cls.block_rows(region, place_ids),
            "block_cols": lambda: cls.block_cols(region, place_ids),
            "block_flat": lambda: cls.block_flat(region, place_ids),
            "cyclic_rows": lambda: cls.cyclic_rows(region, place_ids),
            "cyclic_cols": lambda: cls.cyclic_cols(region, place_ids),
            "block_cyclic": lambda: cls.block_cyclic(
                region, place_ids, block_h, block_w
            ),
        }
        require(
            kind in factories,
            f"unknown distribution kind {kind!r}; known: {sorted(factories)}",
            DistributionError,
        )
        return factories[kind]()

    # -- queries --------------------------------------------------------------
    def place_of(self, i: int, j: int) -> int:
        """The home place of cell (i, j)."""
        if not self.region.contains(i, j):
            raise DistributionError(f"({i}, {j}) outside {self.region}")
        return self._map_fn(i, j)

    def places_of(self, rows, cols):
        """:meth:`place_of` over arrays of cells: one rectangle test per
        partition where the kind has them, else cell by cell."""
        rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
        if self._partitions is None:
            return np.fromiter(map(self.place_of, rows.tolist(), cols.tolist()), np.int64, len(rows))
        out = np.full(len(rows), -1, np.int64)
        for pid, parts in self._partitions.items():
            for r in parts:
                out[(rows >= r.row0) & (rows < r.row1) & (cols >= r.col0) & (cols < r.col1)] = pid
        return out

    @property
    def nplaces(self) -> int:
        return len(self.place_ids)

    def partitions(self, place_id: int) -> Optional[List[Region2D]]:
        """Rectangular partitions owned by ``place_id`` for block kinds.

        ``None`` for kinds without a rectangular decomposition (cyclic,
        custom); use :meth:`owned_coords` instead.
        """
        if self._partitions is None:
            return None
        return list(self._partitions.get(place_id, []))

    def owned_coords(self, place_id: int) -> Iterator[Tuple[int, int]]:
        """All cells homed at ``place_id``, in row-major order."""
        if self._partitions is not None:
            for part in self._partitions.get(place_id, []):
                yield from part
            return
        for i, j in self.region:
            if self._map_fn(i, j) == place_id:
                yield (i, j)

    def owned_count(self, place_id: int) -> int:
        if self._partitions is not None:
            return sum(p.size for p in self._partitions.get(place_id, []))
        return sum(1 for _ in self.owned_coords(place_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dist({self.kind}, region={self.region}, places={self.place_ids})"
