"""The paper's new recovery method for distributed DAGs (section VI-D).

"Once a *DeadPlaceException* raises, the program will be paused and enter
the recovery mode. DPX10 will create a new distributed array among the
remaining places and restore the result of the finished vertices from the
alive places. By default the result of remote vertices will be discarded
since it may take less time to recompute them rather than copy them across
the network. The user can change this behavior if the computation is more
time-consuming than the communication. All unfinished vertices in the new
array will be initialized (reset the indegree)."

Concretely:

1. refuse if place 0 died (the Resilient X10 limitation the paper notes);
2. build a new :class:`~repro.dist.dist.Dist` of the same kind over the
   surviving places;
3. for every finished vertex still held by a surviving place: keep it in
   place if its new home is the same place; otherwise copy it (restore
   manner "copy", costed against the network model) or discard it for
   recomputation (default "discard");
4. reset the indegree of every unfinished vertex to its count of
   *unfinished* dependencies and rebuild the ready lists.

Everything a dead place held is gone and will be recomputed.

Recovery is domain-agnostic: it walks ``dag.region`` and the pattern's
``get_dependency`` over opaque layout cells, so tree and tensor domains
(:mod:`repro.core.domain`) recover exactly like grids. Domain-aware
partitions survive too — ``config.make_dist`` re-invokes a
``custom_dist`` factory (e.g. ``TreeDomain.make_dist``) over the
survivor set, rebuilding the subtree/heavy-path decomposition on the
remaining places.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, Tuple

from collections import deque

import numpy as np

from repro.core.vertex_store import VertexStore, build_stores
from repro.core.worker import ExecutionState
from repro.dist.dist import Dist
from repro.errors import DeadPlaceException, PlaceZeroDeadError, RecoveryError
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS
from repro.util.logging import get_logger
from repro.util.timer import Timer

logger = get_logger("core.recovery")

__all__ = ["RecoveryStats", "recover", "recover_from_snapshot", "recover_tiled"]

Coord = Tuple[int, int]


def _record_metrics(state: ExecutionState, stats: RecoveryStats) -> None:
    """Publish one recovery pass to the run's metrics registry."""
    metrics = state.metrics
    if not metrics.enabled:
        return
    metrics.counter(
        "dpx10_recoveries_total", "fault recoveries performed", ("mechanism",)
    ).labels(stats.mechanism).inc()
    metrics.histogram(
        "dpx10_recovery_seconds",
        "wall time of one recovery pass",
        buckets=DEFAULT_SECONDS_BUCKETS,
    ).observe(stats.wall_time)
    cells = metrics.counter(
        "dpx10_recovery_cells_total",
        "finished cells handled during recovery, by action",
        ("action",),
    )
    cells.labels("preserved").inc(stats.preserved_in_place)
    cells.labels("copied").inc(stats.copied)
    cells.labels("discarded").inc(stats.discarded)
    cells.labels("restored").inc(stats.restored_from_snapshot)


@dataclass
class RecoveryStats:
    """What one recovery pass did (feeds tests, reports and the sim model)."""

    dead_places: tuple
    alive_places: tuple
    #: which mechanism ran: "recovery" (the paper's) or "snapshot"
    mechanism: str = "recovery"
    preserved_in_place: int = 0
    copied: int = 0
    discarded: int = 0
    restored_from_snapshot: int = 0
    lost_on_dead: int = 0
    to_recompute: int = 0
    #: dead places a pooled spare took over under the same id (mp only)
    pool_restarts: int = 0
    wall_time: float = 0.0


def _restartable(state: ExecutionState, pass_fn) -> RecoveryStats:
    """Run one recovery pass, restarting it if a place dies mid-pass.

    A chaos schedule (or, in principle, real hardware) can kill another
    place *while the recovery pass is in flight* — surfacing as a
    :class:`DeadPlaceException` from a salvage read, a chaos trigger or
    an mp place that died on its own. The pass is idempotent until it
    installs the new state, so the safe response is to recompute
    dead/alive from scratch and start over; each pass refuses a dead
    place 0 itself (after any pooled replacement). Each restart shrinks
    the alive set or spends a one-shot chaos trigger, so a bounded number
    of attempts ends — if place 0 died, in a clean
    :class:`UnrecoverableError` subclass rather than a hang.
    """
    controller = state.chaos
    if controller is not None:
        controller.begin_recovery_pass()
    for _ in range(state.group.size + 1):
        try:
            return pass_fn(state)
        except DeadPlaceException as exc:
            logger.warning(
                "place %d died while recovery was in flight; restarting "
                "the pass over the new survivor set",
                exc.place_id,
            )
    raise RecoveryError(
        "recovery could not stabilize: places kept dying faster than "
        "passes completed"
    )


def _poll_mid_recovery_chaos(state: ExecutionState, progress: int) -> None:
    """Fire any armed mid-recovery kill; raises DeadPlaceException."""
    controller = state.chaos
    if controller is None:
        return
    victims = controller.poll_recovery(progress)
    if victims:
        for victim in victims:
            state.group.kill(victim)
        raise DeadPlaceException(victims[0])


def recover(state: ExecutionState) -> RecoveryStats:
    """Rebuild ``state`` (dist, stores, ready lists) over surviving places.

    Mutates ``state`` in place and returns the pass statistics. Restarts
    itself if yet another place dies while the pass is in flight.
    """
    return _restartable(state, _recover_once)


def _recover_once(state: ExecutionState) -> RecoveryStats:
    group = state.group
    if not group.is_alive(0):
        raise PlaceZeroDeadError()

    old_dist = state.dist
    old_stores = state.stores
    dead = tuple(pid for pid in old_dist.place_ids if not group.is_alive(pid))
    alive = group.alive_ids()
    stats = RecoveryStats(dead_places=dead, alive_places=tuple(alive))

    with Timer() as timer:
        dag = state.dag
        config = state.config
        new_dist = config.make_dist(dag.region, alive)

        # salvage finished results still reachable on surviving places;
        # every salvaged cell is a unit of recovery progress for armed
        # mid-recovery chaos kills (which abort and restart this pass)
        preserved: Dict[Coord, Tuple[object, int]] = {}
        for pid in old_dist.place_ids:
            if not group.is_alive(pid):
                continue
            for coord, value in old_stores[pid].finished_items():
                preserved[coord] = (value, pid)
                _poll_mid_recovery_chaos(state, len(preserved))

        new_stores: Dict[int, VertexStore] = build_stores(
            group,
            dag,
            new_dist,
            state.app.value_dtype,
            state.app.init_value,
            spill_dir=config.spill_dir,
        )

        for coord, (value, old_home) in preserved.items():
            new_home = new_dist.place_of(*coord)
            if new_home == old_home:
                new_stores[new_home].set_result(*coord, value)
                new_stores[new_home].mark_finished(*coord)
                stats.preserved_in_place += 1
            elif config.restore_manner == "copy":
                state.network.record(old_home, new_home, config.value_nbytes)
                new_stores[new_home].set_result(*coord, value)
                new_stores[new_home].mark_finished(*coord)
                stats.copied += 1
            else:
                stats.discarded += 1

        stats.to_recompute = _install(state, new_dist, new_stores)
        stats.lost_on_dead = max(
            0, state.completions - (stats.preserved_in_place + stats.copied + stats.discarded)
        )

    stats.wall_time = timer.elapsed
    _record_metrics(state, stats)
    return stats


def recover_from_snapshot(state: ExecutionState) -> RecoveryStats:
    """The Resilient-X10 baseline: roll back to the last periodic snapshot.

    Everything computed since the last ``snapshot()`` is lost — including
    results still sitting on perfectly healthy places — which is exactly
    the trade-off the paper's new method avoids. Restores are costed as
    transfers from stable storage (modelled at place 0). Restarts itself
    if another place dies while the pass is in flight.
    """
    return _restartable(state, _recover_from_snapshot_once)


def _recover_from_snapshot_once(state: ExecutionState) -> RecoveryStats:
    group = state.group
    if not group.is_alive(0):
        raise PlaceZeroDeadError()

    old_dist = state.dist
    dead = tuple(pid for pid in old_dist.place_ids if not group.is_alive(pid))
    alive = group.alive_ids()
    stats = RecoveryStats(
        dead_places=dead, alive_places=tuple(alive), mechanism="snapshot"
    )

    with Timer() as timer:
        config = state.config
        new_dist = config.make_dist(state.dag.region, alive)
        new_stores: Dict[int, VertexStore] = build_stores(
            group,
            state.dag,
            new_dist,
            state.app.value_dtype,
            state.app.init_value,
            spill_dir=config.spill_dir,
        )
        cells = state.snapshots.load() if state.snapshots is not None else {}
        for (i, j), value in cells.items():
            home = new_dist.place_of(i, j)
            state.network.record(0, home, config.value_nbytes)
            new_stores[home].set_result(i, j, value)
            new_stores[home].mark_finished(i, j)
        stats.restored_from_snapshot = len(cells)
        stats.to_recompute = _install(state, new_dist, new_stores)
        stats.lost_on_dead = max(0, state.completions - len(cells))

    stats.wall_time = timer.elapsed
    _record_metrics(state, stats)
    return stats


def _install(state: ExecutionState, new_dist: Dist, new_stores: Dict[int, VertexStore]) -> int:
    """Reset indegrees, rebuild ready lists, swap the state in.

    Returns the number of active vertices left to (re)compute.
    """

    def finished_now(i: int, j: int) -> bool:
        return new_stores[new_dist.place_of(i, j)].is_finished(i, j)

    dag = state.dag
    alive = list(new_dist.place_ids)
    new_ready: Dict[int, Deque[Coord]] = {pid: deque() for pid in alive}
    total_active = 0
    finished_active = 0
    for pid in alive:
        store = new_stores[pid]
        for k, (i, j) in enumerate(store.coords):
            if not store.active[k]:
                continue
            total_active += 1
            if store.finished[k]:
                finished_active += 1
                continue
            indegree = 0
            for d in dag.get_dependency(i, j):
                if dag.is_active(d.i, d.j) and not finished_now(d.i, d.j):
                    indegree += 1
            store.indegree[k] = indegree
            if indegree == 0:
                new_ready[pid].append((i, j))

    state.stores = new_stores
    state.ready = new_ready
    _resume_on(state, new_dist)
    return total_active - finished_active


def _resume_on(state: ExecutionState, new_dist: Dist) -> None:
    """Swap the survivor distribution in and leave recovery mode."""
    state.dist = new_dist
    # clear the abort latch so the next execution round starts clean
    state.abort_event.clear()
    state._abort_exc = None
    # placement RNGs and conditions for places that were not in the old
    # dist (cannot happen today — recovery only shrinks — but keep the
    # invariant that every dist place has both)
    state.__post_init__()


def recover_tiled(state: ExecutionState) -> RecoveryStats:
    """Recovery for tiled runs, on the plane (either ``ft_mode``, every engine).

    The dead places' tiles are zeroed on the plane and re-homed over the
    survivors (:meth:`~repro.core.plane.TilePlane.lose`); everything a
    surviving place finished stays where it is, so there is nothing to
    copy or discard. On mp a pooled spare may first take a dead place's
    id, and keep its (zeroed) tiles. ``ft_mode="snapshot"`` then rolls
    the whole plane back to the last checkpoint, costed as transfers from
    stable storage at place 0. The places learn the new owner map, and
    the tile wavefront is rebuilt from the finish flags.
    """
    return _restartable(state, _recover_tiled_once)


def _recover_tiled_once(state: ExecutionState) -> RecoveryStats:
    group = state.group
    plane = state.plane
    homes = np.unique(plane.owners[plane.owners >= 0]).tolist()
    dead = tuple(p for p in homes if not group.is_alive(p))
    revived = group.replace(dead)
    if not group.is_alive(0):
        raise PlaceZeroDeadError()

    config = state.config
    snapshot = config.ft_mode == "snapshot"
    alive = group.alive_ids()
    stats = RecoveryStats(
        dead_places=dead,
        alive_places=tuple(alive),
        mechanism="snapshot" if snapshot else "recovery",
        pool_restarts=len(revived),
    )
    with Timer() as timer:
        new_dist = config.make_dist(state.dag.region, alive)
        before = int(np.count_nonzero(plane.finished))
        plane.lose(dead, new_dist, rehome=set(dead) - set(revived))
        if snapshot:
            plane.restore(state.snapshots.load())
            restored = np.bincount(
                plane.owners_of(*np.nonzero(plane.finished)), minlength=1
            )
            for home, ncells in enumerate(restored.tolist()):
                if ncells:
                    state.network.record(0, home, ncells * plane.nbytes)
            stats.restored_from_snapshot = int(restored.sum())
        kept = int(np.count_nonzero(plane.finished))
        if not snapshot:
            stats.preserved_in_place = kept
        stats.lost_on_dead = max(0, before - kept)
        stats.to_recompute = state.total_active - kept
        # every kept cell is a unit of recovery progress for armed
        # mid-recovery chaos kills (which abort and restart this pass;
        # lose() then also catches tiles re-homed onto the new corpse)
        _poll_mid_recovery_chaos(state, kept)
        group.rehomed(plane)

        _resume_on(state, new_dist)
        state.ready = {pid: deque() for pid in state.dist.place_ids}
        state.tiles.build(plane, state.dist.place_ids, state.push_ready)

    stats.wall_time = timer.elapsed
    _record_metrics(state, stats)
    return stats
