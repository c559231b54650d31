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

That loop is written once per engine, for whatever the ready lists hold:
cells executed by :func:`execute_vertex`, or on a tiled run whole tiles
executed by :func:`repro.core.tiling.execute_tile`. Both executors take
``(state, unit)``, choose the unit's execution place themselves and
release its successors onto ``state.ready``.

* :func:`run_inline` — a deterministic round-robin over the places' ready
  lists (one unit per alive place per sweep), single-threaded;
* :func:`run_threaded` — one long-running worker activity per place on the
  :class:`~repro.apgas.engine.ThreadedEngine`, with condition-variable
  wakeups and a global abort protocol for fault handling.

Placement note: a scheduling strategy may choose a non-home execution
place. All observable consequences — dependency-transfer volume, cache
behaviour, result write-back, per-place activity counts, and (in the
simulator) timing — follow that choice. Physical execution stays on the
home worker's thread because places share one Python process; nothing the
framework, tests or figures measure depends on which OS thread ran the
bytecode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.apgas.failure import FaultInjector
from repro.apgas.network import NetworkModel
from repro.apgas.place import PlaceGroup
from repro.core.api import DPX10App, Vertex
from repro.core.cache import RemoteCache
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.scheduler import SchedulingStrategy
from repro.core.tiling import execute_tile
from repro.core.trace import ExecutionTrace, TraceEvent
from repro.core.vertex_store import VertexStore
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.dist.dist import Dist
from repro.dist.snapshot import SnapshotStore
from repro.errors import DeadPlaceException, DependencyRaceError, DPX10Error, PatternError
from repro.util.rng import seeded_rng

__all__ = ["ExecutionState", "execute_vertex", "run_inline", "run_threaded"]

Coord = Tuple[int, int]

# threaded workers poll this often when their ready list is empty; wakeups
# via the per-place condition make the common case prompt, the timeout only
# bounds how stale a missed notification can get
_IDLE_WAIT_S = 0.02


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
    stores: Dict[int, VertexStore]
    ready: Dict[int, Deque[Coord]]
    caches: Dict[int, RemoteCache]
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
    #: tile-granular scheduling state (config.tile_shape); None on the
    #: legacy per-vertex path. See repro.core.tiling.TileRunState.
    tiles: Optional[object] = None
    #: the dense data plane of a tiled run (repro.core.plane.TilePlane),
    #: which then owns values and finish flags: ``stores`` and ``caches``
    #: stay empty and ``ready`` queues tile indices. None on the
    #: per-vertex path.
    plane: Optional[object] = None
    #: chaos controller (config.chaos); None on undisturbed runs. The
    #: worker consults it for slow-place throttles, recovery for
    #: mid-recovery kill triggers. See repro.chaos.controller.
    chaos: Optional[object] = None
    #: the kernel tiles are swept with (repro.core.plane.tile_kernel):
    #: generated (config.autokernel), else the app's hand compute_tile;
    #: None selects the per-cell loop (OPAQUE apps, sanitized runs).
    kernel: Optional[object] = None
    #: rolling per-place tile-service-time baseline (created whenever
    #: metrics or tracing is on); publishes dpx10_straggler{place}
    #: gauges. See repro.obs.causal.StragglerDetector.
    straggler: Optional[object] = None
    _completions_lock: threading.Lock = field(default_factory=threading.Lock)
    conds: Dict[int, threading.Condition] = field(default_factory=dict)
    abort_event: threading.Event = field(default_factory=threading.Event)
    _abort_exc: Optional[DPX10Error] = None
    rngs: Dict[int, np.random.Generator] = field(default_factory=dict)
    # set by the runtime before run_threaded; the inline driver ignores it
    _engine: object = None

    def __post_init__(self) -> None:
        for pid in self.dist.place_ids:
            self.conds.setdefault(pid, threading.Condition())
            self.rngs.setdefault(
                pid, seeded_rng(self.config.seed, "scheduler", pid)
            )

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

    def pop_ready(self, place_id: int) -> Optional[Coord]:
        try:
            return self.ready[place_id].popleft()
        except IndexError:
            return None

    # -- termination (the paper's finished-vertices counter) -------------------------
    def place_done(self, place_id: int) -> bool:
        """Whether every unit homed at the place has finished.

        Raises :class:`DeadPlaceException` for a dead place's vertex store.
        """
        if self.tiles is not None:
            return self.tiles.place_done(place_id)
        return self.stores[place_id].all_done()

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
        if self.plane is not None:
            cells = self.plane.results(copy=True)
        else:
            cells = {}
            for pid in self.dist.place_ids:
                if not self.group.is_alive(pid):
                    continue
                for coord, value in self.stores[pid].finished_items():
                    cells[coord] = value
        self.snapshots.store(cells)
        return len(cells)

    # -- abort protocol (threaded engine) ------------------------------------------
    def record_abort(self, exc: DPX10Error) -> None:
        with self._completions_lock:
            if self._abort_exc is None:
                self._abort_exc = exc
        self.abort_event.set()
        for cond in self.conds.values():
            with cond:
                cond.notify_all()

    @property
    def abort_exc(self) -> Optional[DPX10Error]:
        return self._abort_exc


def execute_vertex(state: ExecutionState, coord: Coord) -> None:
    """Run one vertex end to end (place, gather deps, compute, store, notify)."""
    i, j = coord
    dag = state.dag
    nbytes = state.config.value_nbytes
    sanitizing = state.config.sanitize
    home = state.dist.place_of(i, j)

    declared = dag.get_dependency(i, j)
    deps = [d for d in declared if dag.is_active(d.i, d.j)]
    dep_homes = [state.dist.place_of(d.i, d.j) for d in deps]
    exec_place = state.strategy.choose_place(
        coord, home, dep_homes, state.group.alive_ids(), state.rngs[home], nbytes
    )
    if state.chaos is not None:
        # slow-place throttle: a real (tiny) sleep at the execution place,
        # perturbing interleavings without touching any value
        state.chaos.on_execute(exec_place)
    t_start = state.trace.now() if state.trace is not None else 0.0

    cache = state.caches[exec_place]
    vertices: List[Vertex] = []
    for d, dep_home in zip(deps, dep_homes):
        if sanitizing and not state.stores[dep_home].is_finished(d.i, d.j):
            # a declared dependency that has not finished means the
            # pattern's anti-dependency under-declares this edge and the
            # indegree bookkeeping released (i, j) too early
            raise _sanitize.race_on_unfinished(
                (i, j), (d.i, d.j), dep_home, exec_place
            )
        if dep_home == exec_place:
            value = state.stores[dep_home].get_result(d.i, d.j)
        else:
            hit, value = cache.get((d.i, d.j))
            if not hit:
                # remote fetch: may raise DeadPlaceException if the
                # dependency's home place failed
                value = state.stores[dep_home].get_result(d.i, d.j)
                state.network.record(dep_home, exec_place, nbytes)
                cache.put((d.i, d.j), value)
        vertices.append(Vertex(d.i, d.j, value))

    if sanitizing:
        with _sanitize.compute_guard(
            (i, j), ((d.i, d.j) for d in declared), exec_place
        ):
            result = state.app.compute(i, j, vertices)
    else:
        result = state.app.compute(i, j, vertices)

    store = state.stores[home]
    store.set_result(i, j, result)
    if exec_place != home:
        state.network.record(exec_place, home, nbytes)
    store.mark_finished(i, j)

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
        a_home = state.dist.place_of(a.i, a.j)
        if not state.group.is_alive(a_home):
            continue
        if state.stores[a_home].dec_indegree(a.i, a.j):
            state.push_ready(a_home, (a.i, a.j))


def run_inline(state: ExecutionState) -> None:
    """Deterministic driver: round-robin one ready unit per place per sweep.

    Raises :class:`DeadPlaceException` on an injected fault (the runtime
    recovers and calls back in) and :class:`PatternError` if the DAG
    deadlocks (unfinished units but nothing schedulable — a broken
    custom pattern).
    """
    execute = execute_tile if state.tiles is not None else execute_vertex
    place_ids = list(state.dist.place_ids)
    while True:
        progressed = False
        for pid in place_ids:
            if not state.group.is_alive(pid):
                continue
            unit = state.pop_ready(pid)
            if unit is None:
                continue
            progressed = True
            execute(state, unit)
        if state.all_done():
            return
        if not progressed:
            raise PatternError(
                "deadlock: unfinished units remain but none are schedulable "
                "(the pattern's dependencies/anti-dependencies are inconsistent)"
            )


def run_threaded(state: ExecutionState) -> None:
    """Concurrent driver: one worker activity per place.

    Each worker drains its own ready list until its *finished vertices
    counter* covers every local unit (the paper's termination rule). On
    any ``DeadPlaceException`` the observing worker records the fault and
    wakes everyone; all workers park, and the exception is re-raised here
    for the runtime's recovery loop.
    """
    from repro.apgas.activity import Activity
    from repro.apgas.engine import ExecutionEngine  # avoid import cycle at top

    engine: ExecutionEngine = state._engine  # type: ignore[attr-defined]
    execute = execute_tile if state.tiles is not None else execute_vertex

    def worker(pid: int) -> None:
        cond = state.conds[pid]
        while not state.abort_event.is_set():
            unit = state.pop_ready(pid)
            try:
                if unit is not None:
                    execute(state, unit)
                elif state.place_done(pid):
                    return
                else:
                    with cond:
                        cond.wait(timeout=_IDLE_WAIT_S)
            except (DeadPlaceException, DependencyRaceError) as exc:
                # a race diagnostic must stop the whole run, not strand
                # the other workers waiting for this unit forever
                state.record_abort(exc)
                return

    for pid in state.dist.place_ids:
        if state.group.is_alive(pid):
            engine.submit(Activity(pid, worker, (pid,)))
    engine.run_all()
    if state.abort_exc is not None:
        raise state.abort_exc
