"""Stable snapshot storage for the resilient-array baseline.

Models Resilient X10's snapshot target: a store that survives place
failures (in X10, replicated or on place 0 / disk). Snapshot volume is
tracked so the ablation benchmark can show why the paper rejects periodic
snapshots for DP workloads ("a large volume of intermediate results may be
produced in the progress of computing", section VI-D).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

__all__ = ["SnapshotStore"]

Coord = Tuple[int, int]


class SnapshotStore:
    """Holds the most recent full snapshot of a distributed array."""

    def __init__(self) -> None:
        self._data: Optional[Mapping[Coord, Any]] = None
        self.snapshots_taken = 0
        self.cells_copied_total = 0

    @property
    def has_snapshot(self) -> bool:
        return self._data is not None

    def store(self, cells: Mapping[Coord, Any]) -> None:
        """Replace the current snapshot with a copy of ``cells``.

        Per-vertex runs pass a dict; tiled runs pass a frozen
        :class:`~repro.core.plane.PlaneResults` (arrays, not a dict of
        every cell).
        """
        self._data = cells.copy()
        self.snapshots_taken += 1
        self.cells_copied_total += len(cells)

    def load(self) -> Mapping[Coord, Any]:
        """A copy of the last snapshot (empty if none was ever taken)."""
        return self._data.copy() if self._data is not None else {}

    def last_snapshot_size(self) -> int:
        return len(self._data) if self._data is not None else 0
