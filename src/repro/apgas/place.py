"""Places: the partitioned halves of the APGAS model.

A place owns a slice of the global address space (``Place.storage``) and is
either alive or dead. Killing a place makes its storage unreachable — any
subsequent access raises :class:`~repro.errors.DeadPlaceException`, exactly
the observable Resilient X10 gives DPX10.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List

from repro.errors import AllPlacesDeadError, DeadPlaceException
from repro.util.validation import require

__all__ = ["Place", "PlaceGroup"]


class Place:
    """One APGAS place: local storage + alive flag + activity statistics."""

    def __init__(self, place_id: int) -> None:
        require(place_id >= 0, f"place id must be >= 0, got {place_id}")
        self.id = place_id
        self._alive = True
        self._storage: Dict[str, Any] = {}
        self._lock = threading.Lock()
        self.activities_run = 0

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Mark the place dead and drop its partition of the address space."""
        with self._lock:
            self._alive = False
            self._storage.clear()

    def check_alive(self) -> None:
        """Raise :class:`DeadPlaceException` if this place has failed."""
        if not self._alive:
            raise DeadPlaceException(self.id)

    # -- partitioned storage ------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self.check_alive()
        with self._lock:
            self._storage[key] = value

    def get(self, key: str) -> Any:
        self.check_alive()
        with self._lock:
            return self._storage[key]

    def pop(self, key: str, default: Any = None) -> Any:
        self.check_alive()
        with self._lock:
            return self._storage.pop(key, default)

    def __contains__(self, key: str) -> bool:
        self.check_alive()
        with self._lock:
            return key in self._storage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return f"Place({self.id}, {state})"


class PlaceGroup:
    """An ordered set of places, analogous to X10's ``PlaceGroup``.

    Tracks which places are alive; iteration and ``alive_ids`` preserve
    the original ordering so distributions are deterministic.
    """

    def __init__(self, nplaces: int) -> None:
        require(nplaces >= 1, f"need at least one place, got {nplaces}")
        self._places: List[Place] = [Place(p) for p in range(nplaces)]

    # -- basic access --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._places)

    def __iter__(self) -> Iterator[Place]:
        return iter(self._places)

    def __getitem__(self, place_id: int) -> Place:
        return self._places[place_id]

    @property
    def size(self) -> int:
        return len(self._places)

    # -- liveness ------------------------------------------------------------
    def is_alive(self, place_id: int) -> bool:
        return self._places[place_id].alive

    def alive_ids(self) -> List[int]:
        """Ids of alive places, in id order."""
        return [p.id for p in self._places if p.alive]

    def alive_count(self) -> int:
        return sum(1 for p in self._places if p.alive)

    def kill(self, place_id: int) -> None:
        self._places[place_id].kill()

    def check_alive(self, place_id: int) -> Place:
        place = self._places[place_id]
        place.check_alive()
        return place

    def require_any_alive(self) -> None:
        if self.alive_count() == 0:
            raise AllPlacesDeadError("every place in the group has failed")

    # -- recovery hooks: no-ops here; the mp engine's group acts on processes --
    def replace(self, dead: List[int]) -> List[int]:
        """Bring dead places back under their ids; returns those revived."""
        return []

    def rehomed(self, plane) -> None:
        """A recovery pass left ``plane`` with a new owner map."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlaceGroup(n={self.size}, alive={self.alive_count()})"
