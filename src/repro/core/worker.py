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

Two drivers share that path:

* :func:`run_inline` — a deterministic round-robin over the places' ready
  lists (one vertex per alive place per sweep), single-threaded;
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
    #: differs from the home place under non-local scheduling or stealing)
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


def execute_vertex(
    state: ExecutionState, coord: Coord, exec_place: int, notify: bool = True
) -> None:
    """Run one vertex end to end (gather deps, compute, store, notify).

    ``notify=False`` skips the anti-dependency indegree updates — used by
    the static-schedule driver, whose precomputed order makes them moot.
    """
    i, j = coord
    dag = state.dag
    nbytes = state.config.value_nbytes
    sanitizing = state.config.sanitize
    if state.chaos is not None:
        # slow-place throttle: a real (tiny) sleep at the execution place,
        # perturbing interleavings without touching any value
        state.chaos.on_execute(exec_place)
    t_start = state.trace.now() if state.trace is not None else 0.0

    declared = dag.get_dependency(i, j)
    deps = [d for d in declared if dag.is_active(d.i, d.j)]
    cache = state.caches[exec_place]
    vertices: List[Vertex] = []
    for d in deps:
        dep_home = state.dist.place_of(d.i, d.j)
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

    home = state.dist.place_of(i, j)
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

    if notify:
        for a in dag.get_anti_dependency(i, j):
            if not dag.is_active(a.i, a.j):
                continue
            a_home = state.dist.place_of(a.i, a.j)
            if not state.group.is_alive(a_home):
                continue
            if state.stores[a_home].dec_indegree(a.i, a.j):
                state.push_ready(a_home, (a.i, a.j))


def try_steal(state: ExecutionState, thief: int) -> Optional[Coord]:
    """Steal a ready vertex for an idle place (``work_stealing`` only).

    Victim selection is longest-queue; the steal takes the *tail* of the
    victim's deque (the classic split: owners consume FIFO from the head,
    thieves take the most recently enqueued work from the tail). Returns
    ``None`` when there is nothing to steal.
    """
    if not state.config.work_stealing:
        return None
    best = None
    best_len = 0
    for pid in state.dist.place_ids:
        if pid == thief or not state.group.is_alive(pid):
            continue
        qlen = len(state.ready[pid])
        if qlen > best_len:
            best, best_len = pid, qlen
    if best is None:
        return None
    try:
        return state.ready[best].pop()
    except IndexError:  # raced with the owner; treat as a failed steal
        return None


def _choose_exec_place(state: ExecutionState, coord: Coord, home: int) -> int:
    dag = state.dag
    dep_homes = [
        state.dist.place_of(d.i, d.j)
        for d in dag.get_dependency(*coord)
        if dag.is_active(d.i, d.j)
    ]
    return state.strategy.choose_place(
        coord,
        home,
        dep_homes,
        state.group.alive_ids(),
        state.rngs[home],
        state.config.value_nbytes,
    )


def run_inline(state: ExecutionState) -> None:
    """Deterministic driver: round-robin one vertex per place per sweep.

    Raises :class:`DeadPlaceException` on an injected fault (the runtime
    recovers and calls back in) and :class:`PatternError` if the DAG
    deadlocks (unfinished vertices but nothing schedulable — a broken
    custom pattern).
    """
    place_ids = list(state.dist.place_ids)
    while True:
        progressed = False
        for pid in place_ids:
            if not state.group.is_alive(pid):
                continue
            coord = state.pop_ready(pid)
            if coord is None:
                coord = try_steal(state, pid)
                if coord is None:
                    continue
                # a stolen vertex executes at the thief
                execute_vertex(state, coord, pid)
                progressed = True
                continue
            progressed = True
            execute_vertex(state, coord, _choose_exec_place(state, coord, pid))
        alive_stores = [
            state.stores[pid] for pid in place_ids if state.group.is_alive(pid)
        ]
        if all(s.all_done() for s in alive_stores):
            return
        if not progressed:
            raise PatternError(
                "deadlock: unfinished vertices remain but none are schedulable "
                "(the pattern's dependencies/anti-dependencies are inconsistent)"
            )


def run_static(state: ExecutionState, order: List[Coord]) -> None:
    """Static-schedule driver: execute a precomputed topological order.

    An optimization extension ("sophisticated scheduling techniques" in
    the paper's future work): no ready lists, no indegree updates — the
    order already encodes every constraint. Cells finished before entry
    (recovery restores, inactive initialization) are skipped, which also
    makes the driver resumable after a fault.
    """
    for coord in order:
        home = state.dist.place_of(*coord)
        store = state.stores[home]
        if store.is_finished(*coord):
            continue
        execute_vertex(
            state, coord, _choose_exec_place(state, coord, home), notify=False
        )


def run_threaded(state: ExecutionState) -> None:
    """Concurrent driver: one worker activity per place.

    Each worker drains its own ready list until its *finished vertices
    counter* covers all local active vertices (the paper's termination
    rule). On any ``DeadPlaceException`` the observing worker records the
    fault and wakes everyone; all workers park, and the exception is
    re-raised here for the runtime's recovery loop.
    """
    from repro.apgas.engine import ExecutionEngine  # avoid import cycle at top

    engine: ExecutionEngine = state._engine  # type: ignore[attr-defined]

    stealing = state.config.work_stealing

    def all_work_done(own_store: VertexStore) -> bool:
        if not stealing:
            return own_store.all_done()
        # a stealing worker only retires once every alive place is done —
        # it may still be useful elsewhere after its own partition finishes
        return all(
            state.stores[p].all_done()
            for p in state.dist.place_ids
            if state.group.is_alive(p)
        )

    def worker(pid: int) -> None:
        store = state.stores[pid]
        cond = state.conds[pid]
        while not state.abort_event.is_set():
            stolen = False
            coord = state.pop_ready(pid)
            if coord is None and stealing:
                coord = try_steal(state, pid)
                stolen = coord is not None
            if coord is None:
                try:
                    if all_work_done(store):
                        return
                except DeadPlaceException as exc:
                    state.record_abort(exc)
                    return
                with cond:
                    cond.wait(timeout=_IDLE_WAIT_S)
                continue
            try:
                exec_place = (
                    pid if stolen else _choose_exec_place(state, coord, pid)
                )
                execute_vertex(state, coord, exec_place)
            except (DeadPlaceException, DependencyRaceError) as exc:
                # a race diagnostic must stop the whole run, not strand
                # the other workers waiting for this vertex forever
                state.record_abort(exc)
                return

    from repro.apgas.activity import Activity

    for pid in state.dist.place_ids:
        if state.group.is_alive(pid):
            engine.submit(Activity(pid, worker, (pid,)))
    engine.run_all()
    if state.abort_exc is not None:
        raise state.abort_exc
