"""Runtime configuration, covering every knob in the paper's Refinements list.

* **Distribution of DAG** — ``distribution`` (kind name) or ``custom_dist``;
* **Initialization of DAG** — the pattern's ``is_active`` plus the app's
  ``init_value`` (see :mod:`repro.core.api`);
* **Scheduling strategy** — ``scheduler``: local / random / mincomm;
* **Cache size** — ``cache_size`` (0 disables the remote-vertex cache);
* **Restore manner** — ``restore_manner``: "discard" (default; recompute
  remote results after a failure) or "copy" (transfer them, for apps whose
  compute is dearer than communication).

``nplaces`` mirrors ``X10_NPLACES`` from the paper's experimental setup.
Each place runs one worker draining its own ready list, so there is no
``X10_NTHREADS`` counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.dist.dist import Dist
from repro.dist.region import Region2D
from repro.util.validation import require

__all__ = ["DPX10Config", "ENGINES"]

#: every execution engine; the CLI, the job server and the chaos harness
#: validate against this one tuple
ENGINES = ("inline", "threaded", "mp")
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
    (:func:`repro.core.tiling.plan_tiles`). Every run keeps its data on
    one plane (:mod:`repro.core.plane`); ``tile_shape=(1, 1)`` is the
    paper-faithful per-vertex reference, a grid of 1×1 tiles that differs
    from other runs in its executor (one cell per unit, through the
    per-place caches ``cache_size`` sizes, with per-cell traces) and its
    re-home rule (``restore_manner``).
    """

    #: number of places (X10_NPLACES)
    nplaces: int = 4
    #: execution engine: deterministic "inline", concurrent "threaded", or
    #: "mp" — real place processes, driven by the inline loop (see
    #: repro.core.mp_engine)
    engine: str = "inline"
    #: distribution kind; the paper's default splices by column
    distribution: str = "block_cols"
    #: block shape for the block_cyclic distribution
    dist_block: tuple[int, int] = (1, 1)
    #: optional custom distribution factory: (region, alive_place_ids) -> Dist
    custom_dist: Optional[Callable[[Region2D, Sequence[int]], Dist]] = None
    #: scheduling strategy: local (default), random, or mincomm
    scheduler: str = "local"
    #: remote-vertex FIFO cache capacity per place; 0 disables. Read by
    #: the per-vertex executor only: tiled runs read neighbours' finished
    #: cells in place on the plane and keep no per-consumer copies
    cache_size: int = 64
    #: bytes per vertex value, used for communication accounting
    value_nbytes: int = 8
    #: recovery behaviour for a survivor's finished vertex whose home
    #: moves. Only the per-vertex reference re-homes every cell on
    #: recovery; a tiled or mp run re-homes only the dead places' units,
    #: so survivors' results never move
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
    #: ``value_dtype``; object-valued apps silently stay in RAM. An
    #: in-process run memory-maps its one value plane there; an mp run
    #: the master's plane and each place's private plane (a spilled run
    #: shares no memory).
    spill_dir: Optional[str] = None
    #: tile-granular execution: block the matrix into ``(tile_h, tile_w)``
    #: tiles and schedule, fetch, and place whole tiles instead of single
    #: cells (see docs/TILING.md). The cell-level pattern is coarsened to a
    #: tile-level DAG (``Dag.coarsen``, symbolically verified acyclic),
    #: the matrix lives in one dense plane every run computes against
    #: (repro.core.plane), and apps may supply a vectorized
    #: ``compute_tile`` kernel. ``None`` (default) leaves the shape to the
    #: planner (``repro.core.tiling.plan_tiles``: 128x128 capped at the
    #: matrix, a full-width strip or per-vertex where the pattern allows
    #: no less), an explicit shape is used as given, and ``(1, 1)`` is the
    #: one spelling of the per-vertex reference: the same plane as a grid
    #: of 1×1 tiles, run cell by cell (mp ships them as 1×1 tile batches).
    #: Supported by the inline, threaded and mp engines.
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
    #: no longer changes which kernel runs: every tiled run, planned or
    #: explicit, compiles ``compute()`` into a vectorized NumPy tile
    #: kernel (repro.analysis) ahead of the hand ``compute_tile`` and the
    #: per-cell loop. Its one effect is a guard: with ``tile_shape=(1,
    #: 1)`` it is an error. It goes, with the apps' hand kernels, once
    #: nothing calls ``compute_tile`` directly; the ledger and serve
    #: bodies still pass it.
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
        for name, allowed in (
            ("engine", ENGINES), ("scheduler", _SCHEDULERS), ("restore_manner", _RESTORE),
            ("ft_mode", ("recovery", "snapshot")),
        ):
            value = getattr(self, name)
            require(value in allowed, f"{name} must be one of {allowed}, got {value!r}")
        for name, least in (
            ("nplaces", 1), ("cache_size", 0), ("value_nbytes", 1),
            ("snapshot_interval", 0), ("progress_interval", 0),
        ):
            value = getattr(self, name)
            require(value >= least, f"{name} must be >= {least}, got {value}")
        require(
            self.custom_dist is not None or self.distribution in _DIST_KINDS,
            f"distribution must be one of {_DIST_KINDS}, got {self.distribution!r}",
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
