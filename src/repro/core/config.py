"""Runtime configuration, covering every knob in the paper's Refinements list.

* **Distribution of DAG** — ``distribution`` (kind name) or ``custom_dist``;
* **Initialization of DAG** — the pattern's ``is_active`` plus the app's
  ``init_value`` (see :mod:`repro.core.api`);
* **Scheduling strategy** — ``scheduler``: local / random / mincomm;
* **Cache size** — ``cache_size`` (0 disables the remote-vertex cache);
* **Restore manner** — ``restore_manner``: "discard" (default; recompute
  remote results after a failure) or "copy" (transfer them, for apps whose
  compute is dearer than communication).

``nplaces`` mirrors ``X10_NPLACES`` and ``threads_per_place`` mirrors
``X10_NTHREADS`` from the paper's experimental setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.dist.dist import Dist
from repro.dist.region import Region2D
from repro.util.validation import require

__all__ = ["DPX10Config"]

_ENGINES = ("inline", "threaded", "mp")
_SCHEDULERS = ("local", "random", "mincomm")
_DIST_KINDS = (
    "block_rows",
    "block_cols",
    "block_flat",
    "cyclic_rows",
    "cyclic_cols",
    "block_cyclic",
)
_RESTORE = ("discard", "copy")


@dataclass
class DPX10Config:
    """All runtime knobs. The defaults are the fast path, not the paper's:
    ``tile_shape=None`` lets the runtime plan tiles and a generated kernel
    (:func:`repro.core.tiling.plan_tiles`). ``tile_shape=(1, 1)`` is the
    paper-faithful per-vertex reference, the only path on which per-cell
    scheduling, ``cache_size``, ``restore_manner`` and per-cell traces
    apply.
    """

    #: number of places (X10_NPLACES)
    nplaces: int = 4
    #: execution engine: deterministic "inline", concurrent "threaded", or
    #: "mp" — real place processes with level-synchronous execution (see
    #: repro.core.mp_engine)
    engine: str = "inline"
    #: worker threads per place (X10_NTHREADS); threaded engine only
    threads_per_place: int = 2
    #: distribution kind; the paper's default splices by column
    distribution: str = "block_cols"
    #: block shape for the block_cyclic distribution
    dist_block: tuple[int, int] = (1, 1)
    #: optional custom distribution factory: (region, alive_place_ids) -> Dist
    custom_dist: Optional[Callable[[Region2D, Sequence[int]], Dist]] = None
    #: scheduling strategy: local (default), random, or mincomm
    scheduler: str = "local"
    #: remote-vertex FIFO cache capacity per place; 0 disables. A
    #: per-vertex-path knob: tiled runs read neighbours' finished cells
    #: in place on the shared plane and keep no per-consumer copies
    cache_size: int = 64
    #: bytes per vertex value, used for communication accounting
    value_nbytes: int = 8
    #: recovery behaviour for finished vertices homed on remote places.
    #: A per-vertex-path knob: tiled and mp recovery re-home only the
    #: dead place's units, so survivors' results never move
    restore_manner: str = "discard"
    #: fault-tolerance mechanism: "recovery" is the paper's new method;
    #: "snapshot" is the Resilient-X10 periodic-snapshot baseline the
    #: paper argues against (provided for comparison)
    ft_mode: str = "recovery"
    #: completions between periodic snapshots (ft_mode="snapshot");
    #: 0 means only the initial (empty) snapshot is ever taken
    snapshot_interval: int = 0
    #: RNG seed (random scheduler, workloads)
    seed: int = 0
    #: run Dag.validate() before executing (recommended for custom patterns)
    validate: bool = False
    #: runtime dependency-race sanitizer: while each compute() runs, every
    #: vertex-store/cache read is cross-checked against the declared
    #: dependency list and violations raise DependencyRaceError naming the
    #: cell, offset, and owning/executing place (see repro.analysis). Adds
    #: a guard around every compute(); keep off when benchmarking.
    sanitize: bool = False
    #: record a per-vertex execution timeline (see repro.core.trace);
    #: adds measurable per-vertex overhead, keep off when benchmarking
    trace: bool = False
    #: enable the metrics registry (repro.obs): named counters/gauges/
    #: histograms scraped from the runtime, exportable as Prometheus text
    #: and embedded in trace exports. Collection is pull-based, so the
    #: per-vertex hot path is unchanged; disabled (default) costs nothing.
    metrics: bool = False
    #: use this repro.obs.metrics.MetricsRegistry instead of creating one
    #: (implies metrics=True); lets a live dashboard or an external
    #: scraper watch the run while it executes
    metrics_registry: Optional[object] = None
    #: called as ``on_progress(completions, total_active)`` every
    #: ``progress_interval`` completions (0 disables). Completions are
    #: monotone across recoveries, so they can exceed the total under
    #: faults.
    on_progress: Optional[Callable[[int, int], None]] = None
    progress_interval: int = 0
    #: spill vertex values to disk-backed arrays in this directory (the
    #: paper's future work: "spilling some data to local disk to enable
    #: computations on large scale of DP problems"). Requires a typed
    #: ``value_dtype``; object-valued apps silently stay in RAM. Tiled
    #: in-process runs memory-map their one value plane there instead of
    #: a file per place; mp runs memory-map the master's plane and each
    #: place's private plane there (a spilled run shares no memory).
    spill_dir: Optional[str] = None
    #: tile-granular execution: block the matrix into ``(tile_h, tile_w)``
    #: tiles and schedule, fetch, and place whole tiles instead of single
    #: cells (see docs/TILING.md). The cell-level pattern is coarsened to a
    #: tile-level DAG (``Dag.coarsen``, symbolically verified acyclic),
    #: the matrix lives in one dense plane every engine computes against
    #: (repro.core.plane), and apps may supply a vectorized
    #: ``compute_tile`` kernel. ``None`` (default) leaves the shape to the
    #: planner (``repro.core.tiling.plan_tiles``: 128x128 capped at the
    #: matrix, a full-width strip or per-vertex where the pattern allows
    #: no less), an explicit shape is used as given, and ``(1, 1)`` is the
    #: one spelling of the per-vertex reference path. Supported by the
    #: inline, threaded and mp engines.
    tile_shape: Optional[tuple[int, int]] = None
    #: chaos-engineering schedule (see repro.chaos): a seeded composite of
    #: kills, mid-recovery kills, slow-place throttles and message chaos.
    #: ``None`` (default) injects nothing. Accepts a
    #: repro.chaos.schedule.ChaosSchedule; its kill events merge with any
    #: explicit ``fault_plans``, its throttles/recovery kills drive the
    #: ChaosController, and its ``message`` block perturbs the mp message
    #: pipes (real delay/drop/dup/reorder) or the in-process NetworkModel
    #: (modelled). Results must be — and are tested to be — unchanged.
    chaos: Optional[object] = None
    #: mp engine only — which backing the one mp loop's planes get (see
    #: repro.core.shm and docs/TILING.md "One plane"). ``True`` (default)
    #: backs the value/finished planes with multiprocessing.shared_memory
    #: segments so place processes read owned cells and halo strips as
    #: NumPy views; ``False`` gives every process a private plane, with
    #: halo and result patches riding the pipes. Regardless of the
    #: setting, object-dtype apps, spilled runs, unsupported platforms
    #: and runs under *message* chaos (whose ChaosPipe needs payloads to
    #: perturb) get private planes. The in-process engines ignore it:
    #: their plane is a heap array.
    shm: bool = True
    #: explicit tile shapes only: compile ``compute()`` into a vectorized
    #: NumPy tile kernel (repro.analysis: lift to IR, classify, emit) and
    #: use it in place of the hand ``compute_tile`` / per-cell loop the
    #: shape otherwise keeps. Planned tiles (``tile_shape=None``) always
    #: try the generated kernel, so the flag changes nothing there; with
    #: ``(1, 1)`` it is an error. Apps the classifier demotes to OPAQUE
    #: (see ``python -m repro analyze``) and sanitized runs keep the
    #: interpreted path, which remains the differential-testing oracle.
    #: A generated kernel takes precedence over a hand-written
    #: ``compute_tile``.
    autokernel: bool = False
    #: serving-layer pacing hook (see repro.serve.scheduler): called with
    #: the number of cells about to execute before every tile / level
    #: batch is dispatched. The callback may *block* — that is how the
    #: job server imposes weighted-fair tile-level scheduling across
    #: concurrent jobs. ``None`` (default) dispatches immediately; batch
    #: composition and results are unchanged either way.
    pace: Optional[Callable[[int], None]] = None
    #: mp engine only: lease pre-forked place processes (and pooled
    #: shared-memory plane segments) from this repro.serve.pool.PlacePool
    #: instead of forking per run — the warm-start path the job server
    #: amortizes across requests. Leased places are re-initialized per
    #: run and returned (or replaced, if a fault killed them) at the end.
    #: Runs under *message* chaos fall back to fresh processes, because
    #: the chaos pipe wrapper must be installed at fork time.
    place_pool: Optional[object] = None

    def __post_init__(self) -> None:
        require(self.nplaces >= 1, f"nplaces must be >= 1, got {self.nplaces}")
        require(
            self.engine in _ENGINES,
            f"engine must be one of {_ENGINES}, got {self.engine!r}",
        )
        require(
            self.threads_per_place >= 1,
            f"threads_per_place must be >= 1, got {self.threads_per_place}",
        )
        require(
            self.custom_dist is not None or self.distribution in _DIST_KINDS,
            f"distribution must be one of {_DIST_KINDS}, got {self.distribution!r}",
        )
        require(
            self.scheduler in _SCHEDULERS,
            f"scheduler must be one of {_SCHEDULERS}, got {self.scheduler!r}",
        )
        require(self.cache_size >= 0, f"cache_size must be >= 0, got {self.cache_size}")
        require(
            self.value_nbytes >= 1,
            f"value_nbytes must be >= 1, got {self.value_nbytes}",
        )
        require(
            self.restore_manner in _RESTORE,
            f"restore_manner must be one of {_RESTORE}, got {self.restore_manner!r}",
        )
        require(
            self.ft_mode in ("recovery", "snapshot"),
            f"ft_mode must be 'recovery' or 'snapshot', got {self.ft_mode!r}",
        )
        require(
            self.snapshot_interval >= 0,
            f"snapshot_interval must be >= 0, got {self.snapshot_interval}",
        )
        require(
            self.progress_interval >= 0,
            f"progress_interval must be >= 0, got {self.progress_interval}",
        )
        if self.chaos is not None:
            # imported lazily: repro.chaos depends on repro.core for its
            # harness, so the config layer cannot import it at module scope
            from repro.chaos.schedule import ChaosSchedule

            require(
                isinstance(self.chaos, ChaosSchedule),
                f"chaos must be a repro.chaos.ChaosSchedule, got {type(self.chaos).__name__}",
            )
        if self.tile_shape is not None:
            require(
                len(tuple(self.tile_shape)) == 2
                and all(isinstance(t, int) and t >= 1 for t in self.tile_shape),
                f"tile_shape must be a pair of ints >= 1, got {self.tile_shape!r}",
            )
            require(
                not self.autokernel or tuple(self.tile_shape) != (1, 1),
                "autokernel=True has no per-vertex form: tile_shape=(1, 1) "
                "is the interpreted reference path",
            )

    def make_dist(self, region: Region2D, alive_place_ids: Sequence[int]) -> Dist:
        """Build the configured distribution over the given alive places."""
        if self.custom_dist is not None:
            return self.custom_dist(region, alive_place_ids)
        return Dist.make(
            self.distribution,
            region,
            alive_place_ids,
            block_h=self.dist_block[0],
            block_w=self.dist_block[1],
        )
