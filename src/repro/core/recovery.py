"""The paper's new recovery method for distributed DAGs (section VI-D).

"Once a *DeadPlaceException* raises, the program will be paused and enter
the recovery mode. DPX10 will create a new distributed array among the
remaining places and restore the result of the finished vertices from the
alive places. By default the result of remote vertices will be discarded
since it may take less time to recompute them rather than copy them across
the network. The user can change this behavior if the computation is more
time-consuming than the communication. All unfinished vertices in the new
array will be initialized (reset the indegree)."

Every run recovers through :func:`recover_tiled`, on its one plane:

1. refuse if place 0 died (the Resilient X10 limitation the paper notes);
2. build a new :class:`~repro.dist.dist.Dist` of the same kind over the
   surviving places;
3. re-home. The per-vertex reference re-homes *every* cell under it: a
   survivor's finished cell that keeps its home is kept, one that moves is
   copied (restore manner "copy", costed per cell against the network
   model) or discarded for recomputation (default "discard"). A tiled run
   re-homes only the dead places' tiles, so survivors' results never move;
4. reset the indegree of every unfinished unit to its count of
   *unfinished* predecessors and rebuild the ready lists
   (:meth:`~repro.core.tiling.TileRunState.build`).

Everything a dead place held is gone and will be recomputed.
``ft_mode="snapshot"`` instead rolls the plane back to the last periodic
checkpoint. Recovery is domain-agnostic: tree and tensor domains
(:mod:`repro.core.domain`) recover exactly like grids, and a
``custom_dist`` factory (e.g. ``TreeDomain.make_dist``) is re-invoked over
the survivor set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.worker import ExecutionState
from repro.errors import DeadPlaceException, PlaceZeroDeadError, RecoveryError
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS
from repro.util.logging import get_logger
from repro.util.timer import Timer

logger = get_logger("core.recovery")

__all__ = ["RecoveryStats", "recover_tiled"]


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


def recover_tiled(state: ExecutionState) -> RecoveryStats:
    """Recover any run on its plane (either ``ft_mode``, every engine).

    The per-vertex reference re-homes every cell over the survivors and
    copies or discards the finished ones that move (:func:`_rehome_cells`).
    A tiled run zeroes the dead places' tiles and re-homes only those
    (:meth:`~repro.core.plane.TilePlane.lose`); everything a surviving
    place finished stays where it is. On mp a pooled spare may first take
    a dead place's id, and keep its (zeroed) tiles. ``ft_mode="snapshot"``
    rolls the whole plane back to the last checkpoint, costed as
    transfers from stable storage at place 0. The places learn the new
    owner map, and the wavefront is rebuilt from the finish flags.

    A chaos schedule (or, in principle, real hardware) can kill another
    place *while the pass is in flight* — a chaos trigger, or an mp place
    that died on its own. The pass then starts over from the new
    survivor set; each pass refuses a dead place 0 itself (after any
    pooled replacement). Each restart shrinks the alive set or spends a
    one-shot chaos trigger, so a bounded number of attempts ends — if
    place 0 died, in a clean :class:`UnrecoverableError` subclass rather
    than a hang.
    """
    if state.chaos is not None:
        state.chaos.begin_recovery_pass()
    for _ in range(state.group.size + 1):
        try:
            return _recover_tiled_once(state)
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


def _recover_tiled_once(state: ExecutionState) -> RecoveryStats:
    group = state.group
    plane = state.plane
    reference = state.per_vertex
    dead = tuple(p for p in state.dist.place_ids if not group.is_alive(p))
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
        if reference:
            _rehome_cells(state, new_dist, dead, stats)
        else:
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
        if not reference:
            stats.preserved_in_place = 0 if snapshot else kept
            stats.lost_on_dead = max(0, before - kept)
        stats.to_recompute = state.total_active - kept
        # every kept cell is a unit of recovery progress for armed
        # mid-recovery chaos kills (which abort and restart this pass;
        # its re-home then also catches units moved onto the new corpse)
        _poll_mid_recovery_chaos(state, kept)
        group.rehomed(plane)
        # clear the abort latch so the next execution round starts clean
        state.abort_event.clear()
        state._abort_exc = None
        state.rebuild(new_dist)

    stats.wall_time = timer.elapsed
    _record_metrics(state, stats)
    return stats


def _rehome_cells(state: ExecutionState, new_dist, dead, stats: RecoveryStats) -> None:
    """The per-vertex reference's re-home: every active cell moves to its
    home under ``new_dist``, each transfer costed per cell at
    ``value_nbytes``. Recovery keeps a survivor's finished cell that stays
    and copies or discards one that moves (``restore_manner``); a snapshot
    rollback restores the checkpoint from stable storage at place 0."""
    plane, network, nbytes = state.plane, state.network, state.config.value_nbytes
    active = plane.owners >= 0
    old = plane.owners[active]
    plane.home(new_dist, np.argwhere(active))
    new = plane.owners[active]
    if state.config.ft_mode == "snapshot":
        plane.restore(state.snapshots.load())
        for home in new[plane.finished[active] > 0].tolist():
            network.record(0, home, nbytes)
        stats.restored_from_snapshot = int(np.count_nonzero(plane.finished))
        stats.lost_on_dead = max(0, state.completions - stats.restored_from_snapshot)
        return
    salvaged = (plane.finished[active] > 0) & ~np.isin(old, dead)
    moved = salvaged & (old != new)
    stats.preserved_in_place = int((salvaged & ~moved).sum())
    stats.lost_on_dead = max(0, state.completions - int(salvaged.sum()))
    if state.config.restore_manner == "copy":
        # in the order the survivors hand them over: by place, row-major
        for k in sorted(np.flatnonzero(moved).tolist(), key=old.__getitem__):
            network.record(int(old[k]), int(new[k]), nbytes)
        stats.copied = int(moved.sum())
    else:
        stats.discarded = int(moved.sum())
        salvaged &= ~moved
    lost = tuple(c[~salvaged] for c in np.nonzero(active))
    plane.values[lost] = plane.zero
    plane.finished[lost] = 0
