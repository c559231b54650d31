"""Worker execution (paper section VI-C).

"On each place, a portion of vertices are assigned in the initial stage.
The worker on each place is responsible for scheduling all its local
vertices. There is a ready list that contains the schedulable and
uncompleted vertices. The worker repeatedly pull the vertices from the
list and schedule them until all local vertices are finished. A *finished
vertices counter* is used to determine the termination of the worker."

The per-vertex path is exactly the paper's: retrieve the dependency
vertices (local read, cache hit, or remote fetch recorded against the
network model), call the user's ``compute()``, store the result at the
vertex's home place, mark it finished, then decrement the indegree of its
anti-dependencies, pushing any that reach zero onto their home place's
ready list.

Every run keeps its values, finish flags and owners on one
:class:`~repro.core.plane.TilePlane` and its indegrees in one
:class:`~repro.core.tiling.TileRunState`; the per-vertex reference is a
run on a grid of 1×1 tiles. What differs is the unit of work the loop
below is written once for: one cell, executed by :func:`execute_vertex`
(the reference, in process), or a batch of ready tiles — independent by
construction — executed by :func:`repro.core.tiling.execute_tiles` in one
``run_tiles`` call. Both executors take ``(state, unit)``, choose
execution places themselves and release successors onto ``state.ready``.

* :func:`run_inline` — deterministic and single-threaded: one cell per
  alive place per turn, or on a tiled run every alive place's ready list;
* :func:`run_threaded` — one worker thread per alive place, each draining
  its own ready list, with condition-variable wakeups and a global abort
  protocol for fault handling.

Placement note: a scheduling strategy may choose a non-home execution
place. All observable consequences — dependency-transfer volume, cache
behaviour, result write-back, per-place execution counts, and (in the
simulator) timing — follow that choice. Physical execution stays on the
home worker's thread because places share one Python process; nothing the
framework, tests or figures measure depends on which OS thread ran the
bytecode; on a tiled inline run, the tiles of all places sweep together.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.analysis import sanitize as _sanitize
from repro.apgas.failure import FaultInjector
from repro.apgas.network import NetworkModel
from repro.apgas.place import PlaceGroup
from repro.core.api import DPX10App, Vertex
from repro.core.cache import RemoteCache
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.plane import TilePlane
from repro.core.scheduler import SchedulingStrategy
from repro.core.tiling import TileRunState, execute_tiles
from repro.core.trace import ExecutionTrace, TraceEvent
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.dist.dist import Dist
from repro.dist.snapshot import SnapshotStore
from repro.errors import DeadPlaceException, PatternError, UnfinishedReadError
from repro.util.rng import seeded_rng

__all__ = ["ExecutionState", "execute_vertex", "run_inline", "run_threaded"]

Coord = Tuple[int, int]

# threaded workers poll this often when their ready list is empty; wakeups
# via the per-place condition make the common case prompt, the timeout only
# bounds how stale a missed notification can get
_IDLE_WAIT_S = 0.02


class _PlaceRng:
    """A place's placement generator, seeded on its first draw: only the
    random strategy draws, and the same seed gives the same sequence."""

    __slots__ = ("key", "rng")

    def __init__(self, *key) -> None:
        self.key, self.rng = key, None

    def __getattr__(self, name: str):
        if self.rng is None:
            self.rng = seeded_rng(*self.key)
        return getattr(self.rng, name)


@dataclass
class ExecutionState:
    """Everything the workers share during one execution round."""

    app: DPX10App
    dag: Dag
    config: DPX10Config
    group: PlaceGroup
    network: NetworkModel
    strategy: SchedulingStrategy
    dist: Dist
    #: the run's one data plane: values, finish flags and unit homes
    plane: TilePlane
    #: the unit wavefront over it: indegrees, finished units, per-place
    #: remaining counts (cells, on the per-vertex reference's 1×1 grid)
    tiles: TileRunState
    #: each place's ready units: cells on the per-vertex reference, else
    #: tile indices
    ready: Dict[int, Deque[Coord]] = field(default_factory=dict)
    #: the per-vertex reference's FIFO caches of remote values, by
    #: execution place; empty on every other run, which reads no cache
    caches: Dict[int, RemoteCache] = field(default_factory=dict)
    #: the paper's per-vertex reference: a 1×1 grid computed in this
    #: process by execute_vertex, one cell per unit (mp ships 1×1 tiles)
    per_vertex: bool = False
    injector: Optional[FaultInjector] = None
    completions: int = 0
    #: vertices executed per place (keyed by the execution place, which
    #: differs from the home place under non-local scheduling)
    executed_by: Dict[int, int] = field(default_factory=dict)
    #: stable checkpoint storage for ft_mode="snapshot"
    snapshots: Optional["SnapshotStore"] = None
    #: active vertices in the whole DAG (for progress reporting)
    total_active: int = 0
    #: per-vertex timeline sink (config.trace=True)
    trace: Optional["ExecutionTrace"] = None
    #: metrics registry (repro.obs); the shared no-op NULL_REGISTRY unless
    #: config.metrics opted the run in
    metrics: MetricsRegistry = NULL_REGISTRY
    #: chaos controller (config.chaos); None on undisturbed runs. The
    #: worker consults it for slow-place throttles, recovery for
    #: mid-recovery kill triggers. See repro.chaos.controller.
    chaos: Optional[object] = None
    #: the kernel tiles are swept with (repro.core.plane.tile_kernel):
    #: generated on every tiled run, else the app's hand compute_tile;
    #: None selects the per-cell loop (OPAQUE apps, sanitized runs).
    kernel: Optional[object] = None
    #: the tile batch executor (repro.core.tiling.execute_tiles): None
    #: for repro.core.plane.run_tiles in this process; the mp engine's
    #: place group puts its own here (repro.core.mp_engine.MPPlaces)
    run_tiles: Optional[Callable] = None
    #: rolling per-place tile-service-time baseline (created whenever
    #: metrics or tracing is on); publishes dpx10_straggler{place}
    #: gauges. See repro.obs.causal.StragglerDetector.
    straggler: Optional[object] = None
    _completions_lock: threading.Lock = field(default_factory=threading.Lock)
    #: per-place wakeups, made by run_threaded for its workers
    conds: Dict[int, threading.Condition] = field(default_factory=dict)
    abort_event: threading.Event = field(default_factory=threading.Event)
    _abort_exc: Optional[Exception] = None
    rngs: Dict[int, _PlaceRng] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # recovery only ever shrinks the places, so these cover every dist
        for pid in self.dist.place_ids:
            self.rngs[pid] = _PlaceRng(self.config.seed, "scheduler", pid)

    # -- the wavefront -------------------------------------------------------------
    def rebuild(self, dist: Dist) -> None:
        """Swap ``dist`` in and seed empty ready lists from the plane's
        finish flags (at start-up, and after every recovery)."""
        self.dist = dist
        self.ready = {pid: deque() for pid in dist.place_ids}
        self.tiles.build(self.plane, dist.place_ids, self.push_ready)

    # -- completion counting ---------------------------------------------------
    def bump_completions(self) -> int:
        with self._completions_lock:
            self.completions += 1
            return self.completions

    # -- ready-list handling -----------------------------------------------------
    def push_ready(self, place_id: int, coord: Coord) -> None:
        """Enqueue a newly schedulable vertex at its home place.

        A dead home place is ignored: recovery will rebuild its state.
        """
        if not self.group.is_alive(place_id):
            return
        self.ready[place_id].append(coord)
        cond = self.conds.get(place_id)
        if cond is not None:
            with cond:
                cond.notify()

    def pop_ready(self, place_id: int):
        """The place's next unit: one cell on the per-vertex reference,
        else its whole ready list, drained by ``popleft`` (its worker is
        the only consumer) so that a tile another worker pushes is never
        lost."""
        ready = self.ready[place_id]
        if self.per_vertex:
            return ready.popleft() if ready else None
        return [ready.popleft() for _ in range(len(ready))] or None

    # -- termination (the paper's finished-vertices counter) -------------------------
    def place_done(self, place_id: int) -> bool:
        """Whether every unit homed at the place has finished."""
        return self.tiles.place_done(place_id)

    def all_done(self) -> bool:
        return all(
            self.place_done(pid)
            for pid in self.dist.place_ids
            if self.group.is_alive(pid)
        )

    # -- periodic snapshots (ft_mode="snapshot") -------------------------------------
    def take_snapshot(self) -> int:
        """Checkpoint every finished vertex to stable storage.

        Values are immutable once finished, so a fuzzy snapshot taken
        while other workers run is still a consistent prefix of the
        computation. Returns the number of cells checkpointed.
        """
        assert self.snapshots is not None
        cells = self.plane.results(copy=True)
        self.snapshots.store(cells)
        return len(cells)

    # -- abort protocol (threaded engine) ------------------------------------------
    def record_abort(self, exc: Exception) -> None:
        with self._completions_lock:
            if self._abort_exc is None:
                self._abort_exc = exc
        self.abort_event.set()
        for cond in self.conds.values():
            with cond:
                cond.notify_all()

    @property
    def abort_exc(self) -> Optional[Exception]:
        return self._abort_exc


def execute_vertex(state: ExecutionState, coord: Coord) -> None:
    """Run one vertex end to end (place, gather deps, compute, store, notify).

    The per-vertex reference's unit, on the run's plane: a dependency is
    read off it (through the execution place's cache when remote), where
    a dead owner raises :class:`DeadPlaceException`; the value, then the
    flag, is written back; the successors are released in the pattern's
    own ``get_anti_dependency`` order against the per-cell indegrees of
    ``state.tiles``.
    """
    i, j = coord
    dag, plane, group = state.dag, state.plane, state.group
    owners, values, flags = plane.owners, plane.values, plane.finished
    nbytes = state.config.value_nbytes
    sanitizing = state.config.sanitize
    home = owners.item(i, j)

    declared = dag.get_dependency(i, j)
    deps = [d for d in declared if dag.is_active(d.i, d.j)]
    dep_homes = [owners.item(d.i, d.j) for d in deps]
    exec_place = state.strategy.choose_place(
        coord, home, dep_homes, group.alive_ids(), state.rngs[home], nbytes
    )
    if state.chaos is not None:
        # slow-place throttle: a real (tiny) sleep at the execution place,
        # perturbing interleavings without touching any value
        state.chaos.on_execute(exec_place)
    t_start = state.trace.now() if state.trace is not None else 0.0

    cache = state.caches[exec_place]
    vertices: List[Vertex] = []
    for d, dep_home in zip(deps, dep_homes):
        key = (d.i, d.j)
        if sanitizing and not flags[key]:
            # a declared dependency that has not finished means the
            # pattern's anti-dependency under-declares this edge and the
            # indegree bookkeeping released (i, j) too early
            raise _sanitize.race_on_unfinished((i, j), key, dep_home, exec_place)
        hit = False
        if dep_home != exec_place:
            hit, value = cache.get(key)
        if not hit:
            # a read off the plane, at the dependency's home place
            if not group.is_alive(dep_home):
                raise DeadPlaceException(dep_home)
            if not flags[key]:
                raise UnfinishedReadError(key)
            value = values[key]
            if dep_home != exec_place:  # remote fetch
                state.network.record(dep_home, exec_place, nbytes)
                cache.put(key, value)
        vertices.append(Vertex(d.i, d.j, value))

    if sanitizing:
        with _sanitize.compute_guard(
            (i, j), ((d.i, d.j) for d in declared), exec_place
        ):
            result = state.app.compute(i, j, vertices)
    else:
        result = state.app.compute(i, j, vertices)

    if not group.is_alive(home):
        raise DeadPlaceException(home)
    values[i, j] = result
    if exec_place != home:
        state.network.record(exec_place, home, nbytes)
    flags[i, j] = 1
    ts, width = state.tiles, plane.grid.ntj
    ts.on_cell_finished(i * width + j, home)

    if state.trace is not None:
        state.trace.record(
            TraceEvent(i, j, home, exec_place, t_start, state.trace.now())
        )

    with state._completions_lock:
        state.executed_by[exec_place] = state.executed_by.get(exec_place, 0) + 1
    completed = state.bump_completions()
    cfg = state.config
    if (
        cfg.ft_mode == "snapshot"
        and cfg.snapshot_interval > 0
        and completed % cfg.snapshot_interval == 0
    ):
        state.take_snapshot()
    if (
        cfg.on_progress is not None
        and cfg.progress_interval > 0
        and completed % cfg.progress_interval == 0
    ):
        cfg.on_progress(completed, state.total_active)
    if state.injector is not None:
        victims = state.injector.poll_completions(completed)
        if victims:
            # kill every place whose trigger fired (simultaneous node
            # failures take down all of them at once), then surface the
            # failure so the runtime enters recovery mode, as with
            # Resilient X10's dead-place signal
            for victim in victims:
                state.group.kill(victim)
                if state.chaos is not None:
                    state.chaos.record("kill")
            raise DeadPlaceException(victims[0])

    for a in dag.get_anti_dependency(i, j):
        if not dag.is_active(a.i, a.j):
            continue
        a_home = owners.item(a.i, a.j)
        if group.is_alive(a_home) and ts.release(a.i * width + a.j):
            state.push_ready(a_home, (a.i, a.j))


def run_inline(state: ExecutionState) -> None:
    """Deterministic driver: one turn round-robins one ready cell per
    alive place on the per-vertex reference, or else drains every alive
    place's ready list, in place-id order, into one
    :func:`~repro.core.tiling.execute_tiles` batch: places of one process
    do not sweep a shared level apart.

    Raises :class:`DeadPlaceException` on an injected fault (the runtime
    recovers and calls back in) and :class:`PatternError` if the DAG
    deadlocks (unfinished units but nothing schedulable — a broken
    custom pattern).
    """
    place_ids = list(state.dist.place_ids)
    while True:
        alive = [pid for pid in place_ids if state.group.is_alive(pid)]
        progressed = False
        if not state.per_vertex:
            batch = [tile for pid in alive for tile in state.pop_ready(pid) or ()]
            if batch:
                progressed = True
                execute_tiles(state, batch)
        else:
            for pid in alive:
                unit = state.pop_ready(pid)
                if unit is not None:
                    progressed = True
                    execute_vertex(state, unit)
        if state.all_done():
            return
        if not progressed:
            raise PatternError(
                "deadlock: unfinished units remain but none are schedulable "
                "(the pattern's dependencies/anti-dependencies are inconsistent)"
            )


def run_threaded(state: ExecutionState) -> None:
    """Concurrent driver: one worker thread per alive place.

    Each worker drains its own ready list until its *finished vertices
    counter* covers every local unit (the paper's termination rule). On
    any exception (a dead place, a race diagnostic, an error in
    ``compute()``) the observing worker records it and wakes everyone;
    all workers park, and the first is re-raised here as raised: a dead
    place for the runtime's recovery loop, anything else ends the run.
    """
    execute = execute_vertex if state.per_vertex else execute_tiles
    state.conds = {pid: threading.Condition() for pid in state.dist.place_ids}

    def worker(pid: int) -> None:
        cond = state.conds[pid]
        try:
            if state.chaos is not None:
                # a throttled place also starts late, perturbing the
                # initial interleaving (results are unchanged)
                state.chaos.on_execute(pid)
            while not state.abort_event.is_set():
                unit = state.pop_ready(pid)
                if unit is not None:
                    execute(state, unit)
                elif state.place_done(pid):
                    return
                else:
                    with cond:
                        cond.wait(timeout=_IDLE_WAIT_S)
        except Exception as exc:  # noqa: BLE001 - re-raised by run_threaded
            # any error must stop the whole run, not strand the other
            # workers waiting for this unit forever
            state.record_abort(exc)

    workers = [
        threading.Thread(target=worker, args=(pid,), name=f"place-{pid}")
        for pid in state.dist.place_ids
        if state.group.is_alive(pid)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    if state.abort_exc is not None:
        raise state.abort_exc
