"""``DPX10Runtime``: the execution flow of the paper's Figure 4.

In the absence of faults a run has three stages:

1. **distribute & initialize** — plan the run's units (tiles, or on the
   per-vertex reference a grid of 1×1 tiles), build the distribution over
   the alive places, home every unit on the one data plane and seed each
   place's ready list with its zero-indegree units;
2. **execute** — start one worker per place; workers schedule local
   vertices and run the user's ``compute()`` until every local vertex is
   finished;
3. **finish** — bind results to the DAG and invoke ``app_finished()``.

On a ``DeadPlaceException`` the runtime pauses, runs
:func:`repro.core.recovery.recover_tiled`, and re-enters the execute
stage on the surviving places — repeatedly, if multiple faults are
injected. The flow is the same on every engine: the
mp engine's place processes are a place group whose tile batches run
remotely (:mod:`repro.core.mp_engine`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apgas.failure import FaultInjector, FaultPlan
from repro.apgas.network import NetworkModel
from repro.apgas.place import PlaceGroup
from repro.core.api import DPX10App
from repro.core.cache import RemoteCache
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.plane import TilePlane, bind_mapping, kernel_name, tile_kernel
from repro.core.recovery import RecoveryStats, recover_tiled
from repro.core.trace import ExecutionTrace, phase_span
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.scheduler import make_strategy
from repro.core.tiling import TileRunState, plan_tiles
from repro.core.worker import ExecutionState, run_inline, run_threaded
from repro.errors import DeadPlaceException, DPX10Error
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
    #: apply) and the tile kernel — a generated kernel's class whatever
    #: the shape, ``"hand"`` for the app's ``compute_tile`` where no
    #: kernel generates, ``None`` for the per-cell loop
    tile_shape: Optional[Tuple[int, int]] = None
    kernel: Optional[str] = None

    @property
    def recomputed(self) -> int:
        """Compute invocations beyond the useful work (fault overhead)."""
        return max(0, self.completions - self.active_vertices)

    @property
    def pool_restarts(self) -> int:
        """Dead mp places a pooled spare took over mid-run."""
        return sum(s.pool_restarts for s in self.recovery_stats)

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
        # the trace exists before partitioning so the "partition" phase
        # span covers distribution + store/plane construction
        trace = ExecutionTrace() if cfg.trace else None
        if cfg.engine == "mp":
            from repro.core.mp_engine import run_mp

            places = run_mp(
                self.app, self.dag, cfg, self.network, self.metrics, self.chaos, trace
            )
        else:
            places = nullcontext(PlaceGroup(cfg.nplaces))
        drive = run_threaded if cfg.engine == "threaded" else run_inline
        recovery_stats: List[RecoveryStats] = []
        with Timer() as timer, places as group:
            state = self._initialize(group, trace)
            logger.debug(
                "initialized %s over %d places (%s, %s engine)",
                type(self.dag).__name__,
                group.size,
                state.dist.kind,
                cfg.engine,
            )
            while True:
                try:
                    with phase_span(trace, "execute"):
                        drive(state)
                    break
                except DeadPlaceException as exc:
                    logger.warning(
                        "place %d died after %d completions; entering "
                        "recovery mode",
                        exc.place_id,
                        state.completions,
                    )
                    with phase_span(trace, "recovery", "recovery"):
                        stats = recover_tiled(state)
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
            _check_complete(self.dag, state)
            if cfg.engine == "mp":
                group.collect(state)
            self._bind_results(state)
            self.app.app_finished(self.dag)

        grid = state.plane.grid
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
            per_place_executed=dict(state.executed_by),
            final_alive_places=group.alive_count(),
            snapshots_taken=(
                state.snapshots.snapshots_taken if state.snapshots else 0
            ),
            snapshot_cells_copied=(
                state.snapshots.cells_copied_total if state.snapshots else 0
            ),
            trace=trace,
            tile_shape=None if grid.cellwise else (grid.tile_h, grid.tile_w),
            kernel=kernel_name(state.kernel),
        )
        if self.metrics.enabled:
            self.metrics.gauge(
                "dpx10_run_wall_seconds", "wall time of the last run()"
            ).set(timer.elapsed)
            report.metrics = self.metrics.collect()
        self._report = report
        return report

    # -- stage 1: distribute & initialize -----------------------------------------
    def _initialize(
        self, group: PlaceGroup, trace: Optional[ExecutionTrace] = None
    ) -> ExecutionState:
        cfg = self.config
        mp = cfg.engine == "mp"
        # every run is a wavefront of units over one dense plane: the
        # planned (or configured) tiles, or with no plan a grid of 1x1
        # tiles — in process the paper's per-vertex reference, which runs
        # one cell per unit through its places' remote-vertex caches
        plan = plan_tiles(self.dag, cfg)
        tiled = plan or self.dag.coarsen(1, 1)
        per_vertex = tiled.grid.cellwise and not mp
        with phase_span(trace, "partition"):
            dist = cfg.make_dist(self.dag.region, group.alive_ids())
            plane = group.allocate(tiled.grid) if mp else TilePlane.allocate(
                tiled.grid, self.app.value_dtype, cfg.value_nbytes, cfg.spill_dir
            )
            plane.home(dist, np.argwhere(tiled.tile_active))
        all_plans = list(self.fault_plans)
        if self.chaos is not None:
            all_plans += self.chaos.fault_plans()
        # exact per-unit counts: completions, progress and fault
        # thresholds are cell-granular
        total_active = int(tiled.tile_cells.sum())
        injector = (
            FaultInjector(all_plans, total_active) if all_plans else None
        )
        state = ExecutionState(
            app=self.app,
            dag=self.dag,
            config=cfg,
            group=group,
            network=self.network,
            strategy=make_strategy(cfg.scheduler),
            dist=dist,
            plane=plane,
            tiles=TileRunState(tiled),
            caches=(
                {pid: RemoteCache(cfg.cache_size) for pid in range(group.size)}
                if per_vertex else {}
            ),
            per_vertex=per_vertex,
            injector=injector,
            total_active=total_active,
            trace=trace,
        )
        with phase_span(trace, "schedule"):
            state.rebuild(dist)
        if plan is not None and not cfg.sanitize:
            # sanitized runs (and mp's 1x1 grids) keep the per-cell loop,
            # whose compute() calls the race guard wraps. Otherwise lift/classify/emit the
            # compute() recurrence; OPAQUE apps keep the hand kernel or
            # the interpreted path (see `repro analyze`). Object-valued
            # apps are eligible too: tree-level kernels run in "cells"
            # mode, not on a typed window
            from repro.analysis.codegen import build_autokernel

            generated, _cls = build_autokernel(self.app, self.dag)
            state.kernel = tile_kernel(self.app, tiled, generated)
        if cfg.ft_mode == "snapshot":
            from repro.dist.snapshot import SnapshotStore

            state.snapshots = SnapshotStore()
            state.take_snapshot()  # the initial (empty) checkpoint
        if trace is not None:
            trace.set_dependency_meta(self.dag, plan)
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
        self._register_collectors(state, group)
        if mp:
            group.start(state)
        # bind eagerly so dag.get_vertex() is reachable during execution
        # (reads it issues from inside compute() go through the plane
        # view, visible to the race sanitizer)
        self._bind_results(state)
        return state

    def _register_collectors(self, state: ExecutionState, group: PlaceGroup) -> None:
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
            alive.set(group.alive_count())
            if state.snapshots is not None:
                snaps.set(state.snapshots.snapshots_taken)
                snap_cells.set(state.snapshots.cells_copied_total)

        reg.register_collector(scrape)

    # -- stage 3: bind results ------------------------------------------------------
    def _bind_results(self, state: ExecutionState) -> None:
        # a live view: the plane is updated in place, recoveries included
        bind_mapping(self.dag, state.plane.results(init=self.app.init_value))


def _check_complete(dag: Dag, state: ExecutionState) -> None:
    """Every active cell must be on the plane at the end: a place that
    acknowledged a batch without computing it shows here, named in domain
    terms ("node 7" on a tree domain)."""
    plane = state.plane
    missing = state.total_active - int(np.count_nonzero(plane.finished))
    if missing:
        unfinished = (
            (i, j) for i, j in dag.region if dag.is_active(i, j) and not plane.finished[i, j]
        )
        shown = ", ".join(dag.describe_cell(*c) for c in islice(unfinished, 5))
        raise DPX10Error(f"{missing} vertices missing after run (first: {shown})")
