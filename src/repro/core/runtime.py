"""``DPX10Runtime``: the execution flow of the paper's Figure 4.

In the absence of faults a run has three stages:

1. **distribute & initialize** — build the distribution over the alive
   places, create the per-place vertex stores, seed each place's ready
   list with its zero-indegree vertices;
2. **execute** — start one worker per place; workers schedule local
   vertices and run the user's ``compute()`` until every local vertex is
   finished;
3. **finish** — bind results to the DAG and invoke ``app_finished()``.

On a ``DeadPlaceException`` the runtime pauses, runs
:func:`repro.core.recovery.recover`, and re-enters the execute stage on
the surviving places — repeatedly, if multiple faults are injected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apgas.failure import FaultInjector, FaultPlan
from repro.apgas.network import NetworkModel
from repro.apgas.runtime import GlobalRuntime
from repro.core.api import DPX10App
from repro.core.cache import RemoteCache
from repro.core.config import DPX10Config
from repro.core.dag import Dag, ResultView
from repro.core.plane import TilePlane, kernel_name, tile_kernel
from repro.core.recovery import (
    RecoveryStats,
    recover,
    recover_from_snapshot,
    recover_tiled,
)
from repro.core.trace import ExecutionTrace
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.scheduler import make_strategy
from repro.core.tiling import TileRunState, plan_tiles
from repro.core.vertex_store import build_stores
from repro.core.worker import ExecutionState, run_inline, run_threaded
from repro.errors import DeadPlaceException, PlaceZeroDeadError
from repro.util.logging import get_logger
from repro.util.timer import Timer

logger = get_logger("core.runtime")

__all__ = ["DPX10Runtime", "RunReport"]

Coord = Tuple[int, int]


@dataclass
class RunReport:
    """Outcome and accounting of one :meth:`DPX10Runtime.run`."""

    wall_time: float
    #: total ``compute()`` invocations, including post-fault recomputation
    completions: int
    #: active vertices in the DAG (the useful work)
    active_vertices: int
    #: number of recovery passes taken
    recoveries: int
    recovery_stats: List[RecoveryStats] = field(default_factory=list)
    network_messages: int = 0
    network_bytes: int = 0
    #: message retransmissions (mp timeouts / modelled chaos drops)
    msg_retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    per_place_activities: Dict[int, int] = field(default_factory=dict)
    #: compute() executions by execution place (moves under non-local
    #: scheduling)
    per_place_executed: Dict[int, int] = field(default_factory=dict)
    final_alive_places: int = 0
    #: periodic-snapshot FT accounting (ft_mode="snapshot" only)
    snapshots_taken: int = 0
    snapshot_cells_copied: int = 0
    #: per-vertex timeline (config.trace=True only)
    trace: Optional["ExecutionTrace"] = None
    #: metrics snapshot from the repro.obs registry (config.metrics=True
    #: only): {name: {kind, help, labelnames, values}} — see
    #: repro.obs.metrics.MetricsRegistry.collect
    metrics: Optional[Dict[str, dict]] = None
    #: the plan that ran: the planned or explicit tile shape (``None`` on
    #: the per-vertex path, where ``cache_size`` / ``restore_manner``
    #: apply) and the tile kernel — a generated kernel's class, ``"hand"``
    #: for the app's ``compute_tile``, ``None`` for the per-cell loop
    tile_shape: Optional[Tuple[int, int]] = None
    kernel: Optional[str] = None

    @property
    def recomputed(self) -> int:
        """Compute invocations beyond the useful work (fault overhead)."""
        return max(0, self.completions - self.active_vertices)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def plan(self) -> str:
        """The granularity and kernel the run used, in words."""
        if self.tile_shape is None:
            return "per-vertex"
        return "{}x{} tiles, {}".format(
            *self.tile_shape,
            f"{self.kernel} kernel" if self.kernel else "per-cell loop",
        )

    def summary(self) -> str:
        """A human-readable multi-line digest of the run."""
        lines = [
            f"plan: {self.plan}",
            f"vertices: {self.active_vertices} active, "
            f"{self.completions} compute() calls"
            + (f" ({self.recomputed} recomputed)" if self.recomputed else ""),
            f"places: {self.final_alive_places} alive at finish, "
            f"{self.recoveries} recovery pass(es)",
            f"network: {self.network_messages} messages, "
            f"{self.network_bytes} bytes",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.cache_hit_rate:.1%})",
            f"wall time: {self.wall_time:.3f}s",
        ]
        if self.snapshots_taken:
            lines.append(
                f"snapshots: {self.snapshots_taken} taken, "
                f"{self.snapshot_cells_copied} cells checkpointed"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable flat summary (for run artifacts / CI logs)."""
        return {
            "wall_time": self.wall_time,
            "completions": self.completions,
            "active_vertices": self.active_vertices,
            "recomputed": self.recomputed,
            "recoveries": self.recoveries,
            "network_messages": self.network_messages,
            "network_bytes": self.network_bytes,
            "msg_retries": self.msg_retries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "per_place_executed": {
                str(k): v for k, v in self.per_place_executed.items()
            },
            "final_alive_places": self.final_alive_places,
            "snapshots_taken": self.snapshots_taken,
            "snapshot_cells_copied": self.snapshot_cells_copied,
            "tile_shape": list(self.tile_shape) if self.tile_shape else None,
            "kernel": self.kernel,
        }


class DPX10Runtime:
    """Coordinates one DPX10 application run.

    >>> from repro.apps.lcs import LCSApp
    >>> from repro.patterns.diagonal import DiagonalDag
    >>> app = LCSApp("ABC", "DBC")
    >>> dag = DiagonalDag(4, 4)
    >>> report = DPX10Runtime(app, dag).run()
    >>> int(dag.get_vertex(3, 3).get_result())
    2
    """

    def __init__(
        self,
        app: DPX10App,
        dag: Dag,
        config: Optional[DPX10Config] = None,
        fault_plans: Sequence[FaultPlan] = (),
        network: Optional[NetworkModel] = None,
    ) -> None:
        self.app = app
        self.dag = dag
        self.config = config if config is not None else DPX10Config()
        self.fault_plans = list(fault_plans)
        self._report: Optional[RunReport] = None
        # the observability registry: an injected one (live dashboards),
        # a fresh one (config.metrics), or the shared no-op
        cfg = self.config
        if cfg.metrics_registry is not None:
            self.metrics: MetricsRegistry = cfg.metrics_registry
        elif cfg.metrics:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = NULL_REGISTRY
        # the chaos controller (config.chaos): its kill events merge with
        # fault_plans, its throttles/recovery kills hook the worker and
        # recovery paths, and its message block perturbs the network
        self.chaos = None
        if cfg.chaos is not None and not cfg.chaos.is_empty:
            from repro.chaos.controller import ChaosController

            self.chaos = ChaosController(cfg.chaos, metrics=self.metrics)
        if network is not None:
            self.network = network
        elif (
            self.chaos is not None
            and self.chaos.message is not None
            and cfg.engine != "mp"
        ):
            # in-process engines: message chaos is modelled on the postal
            # network (the mp engine instead perturbs its real pipes)
            from repro.chaos.network import ChaosNetwork

            self.network = ChaosNetwork(
                self.chaos.message,
                seed=cfg.chaos.seed,
                record_event=self.chaos.record,
            )
        else:
            self.network = NetworkModel()

    @property
    def report(self) -> Optional[RunReport]:
        """The report of the last ``run()``, if any."""
        return self._report

    def run(self) -> RunReport:
        """Execute the application to completion and return the report."""
        cfg = self.config
        if cfg.validate:
            self.dag.validate()
        if cfg.engine == "mp":
            return self._run_mp()

        rt = GlobalRuntime(
            cfg.nplaces,
            engine=cfg.engine,
            threads_per_place=cfg.threads_per_place,
            network=self.network,
        )
        if self.chaos is not None and self.chaos.has_throttles:
            # throttled places also start their worker activities late,
            # perturbing the initial interleaving (results are unchanged)
            rt.engine.on_activity_start = self.chaos.on_execute
        recovery_stats: List[RecoveryStats] = []
        state: Optional[ExecutionState] = None
        try:
            with Timer() as timer:
                state = self._initialize(rt)
                logger.debug(
                    "initialized %s over %d places (%s, %s engine)",
                    type(self.dag).__name__,
                    rt.group.size,
                    state.dist.kind,
                    cfg.engine,
                )
                while True:
                    try:
                        with self._phase(state, "execute"):
                            if cfg.engine == "threaded":
                                run_threaded(state)
                            else:
                                run_inline(state)
                        break
                    except DeadPlaceException as exc:
                        logger.warning(
                            "place %d died after %d completions; entering "
                            "recovery mode",
                            exc.place_id,
                            state.completions,
                        )
                        if not rt.group.is_alive(0):
                            raise PlaceZeroDeadError()
                        with self._phase(state, "recovery", "recovery"):
                            if state.tiles is not None:
                                stats = recover_tiled(state)
                            elif cfg.ft_mode == "snapshot":
                                stats = recover_from_snapshot(state)
                            else:
                                stats = recover(state)
                        recovery_stats.append(stats)
                        logger.info(
                            "recovered onto places %s: %d preserved, %d copied, "
                            "%d discarded, %d to recompute",
                            stats.alive_places,
                            stats.preserved_in_place,
                            stats.copied,
                            stats.discarded,
                            stats.to_recompute,
                        )
                self._bind_results(state)
                self.app.app_finished(self.dag)
        finally:
            rt.shutdown()

        report = RunReport(
            wall_time=timer.elapsed,
            completions=state.completions,
            active_vertices=state.total_active,
            recoveries=len(recovery_stats),
            recovery_stats=recovery_stats,
            network_messages=self.network.stats.messages,
            network_bytes=self.network.stats.bytes,
            msg_retries=self.network.stats.retries,
            cache_hits=sum(c.hits for c in state.caches.values()),
            cache_misses=sum(c.misses for c in state.caches.values()),
            per_place_activities={p.id: p.activities_run for p in rt.group},
            per_place_executed=dict(state.executed_by),
            final_alive_places=rt.group.alive_count(),
            snapshots_taken=(
                state.snapshots.snapshots_taken if state.snapshots else 0
            ),
            snapshot_cells_copied=(
                state.snapshots.cells_copied_total if state.snapshots else 0
            ),
            trace=state.trace,
            tile_shape=state.plane.unit if state.plane is not None else None,
            kernel=kernel_name(state.kernel),
        )
        if self.metrics.enabled:
            self.metrics.gauge(
                "dpx10_run_wall_seconds", "wall time of the last run()"
            ).set(timer.elapsed)
            report.metrics = self.metrics.collect()
        self._report = report
        return report

    @staticmethod
    def _phase(state: ExecutionState, name: str, category: str = "phase"):
        """A trace span for a runtime phase, or a no-op when not tracing."""
        if state.trace is not None:
            return state.trace.phase(name, category)
        from contextlib import nullcontext

        return nullcontext()

    # -- the multiprocessing path ---------------------------------------------------
    def _run_mp(self) -> RunReport:
        """Real place processes, level-synchronous (repro.core.mp_engine)."""
        from repro.core.mp_engine import run_mp

        trace = ExecutionTrace() if self.config.trace else None
        straggler = None
        if self.metrics.enabled or trace is not None:
            from repro.obs.causal import StragglerDetector

            straggler = StragglerDetector(self.metrics)
        with Timer() as timer:
            results, stats = run_mp(
                self.app,
                self.dag,
                self.config,
                self.fault_plans,
                registry=self.metrics,
                chaos=self.chaos,
                trace=trace,
                straggler=straggler,
            )
            self._bind_mapping(results)
            self.app.app_finished(self.dag)

        report = RunReport(
            wall_time=timer.elapsed,
            completions=stats.completions,
            active_vertices=len(results),
            recoveries=stats.recoveries,
            network_messages=stats.network_messages,
            network_bytes=stats.network_bytes,
            msg_retries=stats.msg_retries,
            per_place_executed=dict(stats.per_place_executed),
            final_alive_places=stats.final_alive_places,
            trace=trace,
            tile_shape=stats.tile_shape,
            kernel=stats.kernel,
        )
        if self.metrics.enabled:
            self.metrics.gauge(
                "dpx10_run_wall_seconds", "wall time of the last run()"
            ).set(timer.elapsed)
            report.metrics = self.metrics.collect()
        self._report = report
        return report

    # -- stage 1: distribute & initialize -----------------------------------------
    def _initialize(self, rt: GlobalRuntime) -> ExecutionState:
        cfg = self.config
        from contextlib import nullcontext

        # the trace exists before partitioning so the "partition" phase
        # span covers distribution + store/plane construction
        trace = ExecutionTrace() if cfg.trace else None
        # tile-granular execution (planned unless the config pins a shape):
        # schedule tiles of the coarsened pattern over one dense plane
        # instead of cells over per-place vertex stores
        tiled = plan_tiles(self.dag, cfg)
        stores: Dict[int, object] = {}
        plane = None
        with trace.phase("partition") if trace is not None else nullcontext():
            dist = cfg.make_dist(self.dag.region, rt.group.alive_ids())
            if tiled is None:
                stores = build_stores(
                    rt.group,
                    self.dag,
                    dist,
                    self.app.value_dtype,
                    self.app.init_value,
                    spill_dir=cfg.spill_dir,
                )
                total_active = sum(s.active_count for s in stores.values())
            else:
                plane = TilePlane.allocate(
                    (self.dag.height, self.dag.width),
                    self.app.value_dtype,
                    (tiled.grid.tile_h, tiled.grid.tile_w),
                    cfg.value_nbytes,
                    cfg.spill_dir,
                )
                tiles = tiled.active_tiles()
                plane.home(dist, tiles)
                # exact per-tile counts: completions, progress and fault
                # thresholds are cell-granular
                total_active = sum(len(tiled.cells_of(*t)[0]) for t in tiles)
        # a tiled run never consults the caches: it reads finished cells
        # in place
        caches = {
            pid: RemoteCache(cfg.cache_size) for pid in range(rt.group.size)
        }
        all_plans = list(self.fault_plans)
        if self.chaos is not None:
            all_plans += self.chaos.fault_plans()
        injector = (
            FaultInjector(all_plans, total_active) if all_plans else None
        )
        state = ExecutionState(
            app=self.app,
            dag=self.dag,
            config=cfg,
            group=rt.group,
            network=self.network,
            strategy=make_strategy(cfg.scheduler),
            dist=dist,
            stores=stores,
            ready={},
            caches=caches,
            injector=injector,
            total_active=total_active,
            trace=trace,
            plane=plane,
        )
        with self._phase(state, "schedule"):
            # the per-place ready lists: zero-indegree cells, or on a
            # tiled run zero-indegree tile indices
            if tiled is None:
                state.ready = {
                    pid: deque(store.zero_indegree_unfinished())
                    for pid, store in stores.items()
                }
            else:
                state.tiles = TileRunState(tiled)
                state.tiles.build(state)
        if tiled is not None and not cfg.sanitize:
            # sanitized runs keep the per-cell loop, whose compute()
            # calls the race guard wraps
            autokernel = None
            if tiled.autokernel:
                # lift/classify/emit the compute() recurrence; OPAQUE
                # apps keep the interpreted path (see `repro analyze`).
                # Object-valued apps are eligible too: tree-level
                # kernels run in "cells" mode, not on a typed window
                from repro.analysis.codegen import build_autokernel

                autokernel, _cls = build_autokernel(self.app, self.dag)
            state.kernel = tile_kernel(self.app, tiled, autokernel)
        if cfg.ft_mode == "snapshot":
            from repro.dist.snapshot import SnapshotStore

            state.snapshots = SnapshotStore()
            state.take_snapshot()  # the initial (empty) checkpoint
        if trace is not None:
            trace.set_dependency_meta(self.dag, tiled)
        if trace is not None and self.dag.domain.kind != "grid":
            # non-grid domains stamp their kind so trace consumers can
            # decode cell coordinates back to native indices; grid runs
            # omit the key, keeping their exported traces byte-identical
            trace.meta["domain"] = self.dag.domain.kind
        state.metrics = self.metrics
        state.chaos = self.chaos
        if self.metrics.enabled or trace is not None:
            from repro.obs.causal import StragglerDetector

            state.straggler = StragglerDetector(self.metrics)
        self._register_collectors(state, rt)
        state._engine = rt.engine
        # bind eagerly so dag.get_vertex() is reachable during execution
        # (reads it issues from inside compute() go through the vertex
        # stores or the plane view, both visible to the race sanitizer)
        self._bind_results(state)
        return state

    def _register_collectors(self, state: ExecutionState, rt: GlobalRuntime) -> None:
        """Publish the runtime's live accounting as named instruments.

        Collection is pull-based: the components keep their tight local
        counters (cache hits, network bytes, executed-by maps) and this
        collector scrapes them into the registry at every ``collect()`` —
        the instrumented hot paths pay nothing.
        """
        reg = self.metrics
        if not reg.enabled:
            return
        cache_hits = reg.counter(
            "dpx10_cache_hits_total", "remote-vertex cache hits", ("place",)
        )
        cache_misses = reg.counter(
            "dpx10_cache_misses_total", "remote-vertex cache misses", ("place",)
        )
        net_messages = reg.counter(
            "dpx10_net_messages_total", "cross-place messages"
        )
        net_bytes = reg.counter(
            "dpx10_net_bytes_total", "cross-place payload bytes"
        )
        net_retries = reg.counter(
            "dpx10_msg_retries_total",
            "message retransmissions (timeouts / modelled drops)",
        )
        executed = reg.counter(
            "dpx10_vertices_computed_total",
            "compute() cells by execution place",
            ("place",),
        )
        completions = reg.counter(
            "dpx10_completions_total",
            "total compute() cells, including post-fault recomputation",
        )
        active = reg.gauge("dpx10_vertices_active", "active vertices in the DAG")
        alive = reg.gauge("dpx10_places_alive", "places currently alive")
        snaps = reg.counter(
            "dpx10_snapshots_taken_total", "periodic snapshots taken"
        )
        snap_cells = reg.counter(
            "dpx10_snapshot_cells_total", "cells copied into snapshots"
        )
        network = self.network

        def scrape(_reg: MetricsRegistry) -> None:
            for pid, cache in list(state.caches.items()):
                cache_hits.labels(pid).set(cache.hits)
                cache_misses.labels(pid).set(cache.misses)
            net_messages.set(network.stats.messages)
            net_bytes.set(network.stats.bytes)
            net_retries.set(network.stats.retries)
            for pid, n in list(state.executed_by.items()):
                executed.labels(pid).set(n)
            completions.set(state.completions)
            active.set(state.total_active)
            alive.set(rt.group.alive_count())
            if state.snapshots is not None:
                snaps.set(state.snapshots.snapshots_taken)
                snap_cells.set(state.snapshots.cells_copied_total)

        reg.register_collector(scrape)

    # -- stage 3: bind results ------------------------------------------------------
    def _bind_mapping(self, results) -> None:
        """Bind a ``{(i, j): value}`` mapping (membership = finished).

        PlaneResults (tiled in-process runs, the mp shm transport) offers
        a vectorized gather; the pickled transport's plain dict does not.
        """
        self.dag.bind_results(
            ResultView(
                lambda i, j: results[(i, j)],
                lambda i, j: (i, j) in results,
                getattr(results, "as_bulk", None),
            )
        )

    def _bind_results(self, state: ExecutionState) -> None:
        if state.plane is not None:
            # a live view: the plane is updated in place, recoveries included
            self._bind_mapping(state.plane.results())
            return
        # read dist/stores through ``state`` on every call: recovery
        # replaces both, and the view must follow the surviving places
        def getter(i: int, j: int):
            return state.stores[state.dist.place_of(i, j)].get_result(i, j)

        def finished(i: int, j: int) -> bool:
            return state.stores[state.dist.place_of(i, j)].is_finished(i, j)

        def bulk(fill, dtype):
            # one vectorized gather per place store; finished-active cells
            # only, everything else keeps ``fill`` (Dag.to_array semantics)
            import numpy as np

            dag = self.dag
            out = np.full((dag.height, dag.width), fill, dtype=dtype or object)
            for pid in state.dist.place_ids:
                store = state.stores[pid]
                n = store.size
                if n == 0:
                    continue
                store._check()
                rows = np.fromiter((c[0] for c in store.coords), np.int64, count=n)
                cols = np.fromiter((c[1] for c in store.coords), np.int64, count=n)
                mask = store.active & store.finished
                out[rows[mask], cols[mask]] = store.values[mask]
            return out

        self.dag.bind_results(ResultView(getter, finished, bulk))
