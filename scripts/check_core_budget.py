#!/usr/bin/env python
"""Line budget for the framework core and the analysis pipeline, and a
knob budget for ``DPX10Config``.

ROADMAP's "net-negative line count in ``src/repro/core`` and
``src/repro/analysis``" as a gate: prints ``wc -l`` per module of both
packages and exits non-zero when either total exceeds its ceiling, or
when ``DPX10Config`` has more fields than :data:`MAX_CONFIG_FIELDS`
(every field is a configuration tests and benchmarks must cover). The
ceilings are the totals at the last change that moved them; a change
that shrinks a package or drops a knob lowers its ceiling in the same
commit, and one that needs to grow it raises the number here, in
review, with a reason.

Run locally with ``python scripts/check_core_budget.py``.
"""

from __future__ import annotations

import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: package directory (relative to the repo root) -> maximum total lines.
#: Raised by exactly the net growth of the planned-default change (core
#: 6007 -> 6086, analysis 6044 -> 6094), after paying with what it
#: strands: ``DPX10Config.tiling_enabled`` and the autokernel-requires-
#: tiling validation (config.py: the new docstring/comments net +2), the
#: three ``dag.coarsen(*cfg.tile_shape) if cfg.tiling_enabled`` copies
#: (runtime, mp_engine, chaos harness -> one ``plan_tiles`` call each) and
#: ``serve.api``'s autokernel gate. What remains in core: ``plan_tiles``
#: and its rule (tiling.py +40), ``RunReport.tile_shape`` / ``kernel`` /
#: ``plan`` with their summary, to_dict and constructor lines (runtime.py
#: +23), the mp master filling the same two fields (mp_engine.py +9) and
#: ``kernel_name`` (plane.py +5); in analysis: the source-level memo
#: ``_read_source`` / ``_SourceFacts`` that the default path now needs
#: (classify.py +50: the front-end runs on every planned solve and every
#: served job). It buys, on the ledger (ten alternated pairs, CHANGES.md
#: PR 20): ``sw_vertex_default_256`` overhead_x 121-149 -> 2.5-2.7,
#: solve_s 1.49-2.18 -> 0.028-0.044 s, setup_s 1.6-2.4 -> 0.29-0.42 s,
#: peak_rss_mb 55.3 -> 51.9; the three explicit-config workloads did not
#: move.
#:
#: Analysis raised again, 6094 -> 6181, by exactly the net growth of the
#: row-scan kernel change after paying with what it deleted: the per-row
#: ``_emit_row_scan`` emitter, ``_ScalarRowEmitter``, the scan-case
#: override in ``emit_cases`` and the ``ROW_SCAN_PREFIX`` branch of
#: ``_emit_kernel`` (codegen.py -109) and ``flatsweep._children_of``. What
#: remains is ``RowScanKernel`` on the flat sweep's shared parts
#: (flatsweep.py +183: the kernel, its builder, the row-geometry rendering
#: of ``_SliceEmitter``, and the base both slice kernels now share) and
#: the cached-field ``ir.children`` walk (ir.py +13). It buys, on the
#: ledger (alternated pairs, CHANGES.md PR 25): ``serve_http_small``
#: overhead_x ~7.9 -> ~4.4 (medians), ``analysis.mcells_per_s.mtp``
#: 8.6 -> 31. Core holds at 6086: the size-bounded halo cache is paid
#: for by the halo geometry it rewrote.
#:
#: Analysis lowered, 6181 -> 5965, when ELEMENTWISE joined the slice
#: kernels: deleted ``codegen._Emitter`` (the ~290-line expression
#: renderer every generated kernel used), ``_emit_kernel`` (the per-row
#: gather ``compute_tile`` emitter) and ``_kernel_for``'s compile-and-exec
#: fallthrough (codegen.py -364). What replaced them is in flatsweep.py
#: (+148): ``_Renderer``, one renderer for the prelude whose subclass
#: ``_SliceEmitter`` renders the sweeps, ``RowKernel`` (the row scan's
#: row geometry without the scan, now ``RowScanKernel``'s base) and the
#: per-row column shift of ``_const_offsets``.
#:
#: Core lowered, 6086 -> 6082, when the in-process engines began handing
#: a place's whole ready list to one executor: deleted ``execute_tile``
#: (its replacement ``tiling.execute_tiles`` places each tile, then makes
#: one ``run_tiles`` call per execution place) and ``TiledDag.autokernel``
#: with the runtime and mp-master branches that read it (every tiled run
#: now builds the generated kernel unless sanitized), and moved the mp
#: places' proportional span split into ``trace.split_span``, which the
#: in-process executor shares. ``DPX10Config`` holds at 27 fields.
#:
#: Raised again by exactly the net growth of the edge-tile peel (core
#: 6082 -> 6106, analysis 5965 -> 6001), after paying with the dead
#: ``_SweepPlan.a/h/w/norm`` attributes (flatsweep.py -2): a top-row or
#: left-column tile takes its initial-condition row / column straight
#: from the prelude (``FlatSweepKernel.peel``, flatsweep.py +28, and the
#: module docstring's corrected boundary-cost account, +7) and sweeps the
#: rest shifted into the interior tiles' stack (``run_tiles``' window
#: branch, plane.py +20); the halo and plan caches take a lock, because
#: the threaded engine's places insert and evict at once (tiling.py +4,
#: flatsweep.py +3). It buys, on the ledger (alternated parent/change
#: pairs in CHANGES.md, 0 failed): ``sw_tiled_inline_1024`` overhead_x
#: 1.705 [1.687, 1.716] -> 1.313 [1.297, 1.325] (10/10 lower, ROADMAP
#: item 2's <= 1.5x gate), ``sw_vertex_default_256`` 1.80 -> 1.33 (5/5),
#: ``sw_tiled_mp_2048`` 1.72 -> 1.48 (8/8).
#:
#: Core raised again, 6106 -> 6124, by exactly the net growth of the
#: merged inline batch, after paying with what it replaced: the
#: per-execution-place ``by_place`` split and loop in
#: ``tiling.execute_tiles``, the ``execute`` alias of ``run_inline``, and
#: the ``DependencyRaceError`` / ``DPX10Error`` special cases of the
#: threaded abort. What remains: ``run_tiles`` takes one execution place
#: per tile (plane.py +2), ``execute_tiles`` accounts each tile at its own
#: place and lands a throttled place's sleep on its own tiles' spans
#: (tiling.py +8), ``run_inline`` drains every alive place's ready list
#: into one batch per turn beside the per-vertex round-robin, and the
#: threaded engine aborts on any exception (worker.py +8, with the
#: docstrings that say so). It buys, on the
#: ledger (ten alternated parent/change pairs in CHANGES.md, 0 failed):
#: ``sw_tiled_inline_1024`` overhead_x 1.497 [1.485, 1.507] -> 1.336
#: [1.305, 1.366] (10/10 lower), ``sw_vertex_default_256`` 1.451 ->
#: 1.386 (5/5), and a threaded run whose ``compute()`` raises no longer
#: hangs.
#:
#: Core lowered, 6124 -> 6065, when the mp engine kept one unit of work:
#: a run with no tile plan (``tile_shape=(1, 1)``, or a pattern no shape
#: coarsens) runs a grid of 1x1 tiles through ``plane.run_tiles``, so
#: ``_PlaceWorker.compute_cells``, the cell branches of the private-plane
#: result patch and of ``halo_patch``, and the per-cell ``ncells_of`` /
#: ``tile_shape is None`` forks are deleted (mp_engine.py 1232 -> 1173).
#: The master makes the kernel decision once and ships it in the init
#: meta, so a sanitized mp run no longer slips into the hand kernel; a
#: ``planned`` flag keeps the per-vertex trace events and message count.
#: The price is per-cell speed on ``(1, 1)`` mp runs, which no ledger
#: workload runs (CHANGES.md has the figures).
#:
#: Both held (core 6065, analysis 6001) by the batched tile path, which
#: paid for its arrays inside the same two packages:
#: deleted the per-shape intra-tile order cache ``_CELL_ORDER_CACHE`` /
#: ``_cell_order``, ``TiledDag._tile_neighbors`` and its dependency dicts
#: (``get_dependency`` reads the successor table), the irregular
#: coarsening's own Kahn pass and the mp master's per-cell Kahn
#: ``_topological_levels`` (both now ``TiledDag.levels()``), the per-tile
#: ``cells_of`` counting in runtime.py and mp_engine.py, the three
#: per-kernel ``prepare`` copies in flatsweep.py (one batched ``prepare``
#: plus ``_extend`` hooks), ``_payload``'s stacking copy and the two
#: copies of the pacer's trace span (now ``trace.paced``). What it added:
#: ``TiledDag.tile_cells`` / ``successors`` / ``levels`` / ``halos_of``,
#: the array ``TileRunState``, the batched transfers, halo gather and
#: write-back of ``run_tiles``, and the per-tile profile reduction. It
#: buys, on the ledger (ten alternated parent/change pairs per workload
#: in CHANGES.md, 0 failed): ``sw_tiled_inline_1024`` overhead_x 1.260
#: [IQR 1.236, 1.276] -> 1.009 (10/10 lower), ``sw_tiled_mp_2048`` 1.642
#: -> 1.321 (10/10), peak RSS 81.0 -> 73.0 MB and 214.9 -> 186.9 MB;
#: ``sw_vertex_default_256`` (1.370 -> 1.376) and ``serve_http_small``
#: (3.82 -> 3.93) stayed inside their bounds.
#:
#: Core raised, 6065 -> 6074, by exactly the net growth of the leading
#: boundary tile (a remainder of one row or column joins the first tile
#: row or column instead of trailing as 1-wide sliver tiles), after
#: paying with the ownership arithmetic ``TilePlane`` kept beside the
#: grid: its ``unit``, the owner-map shape, the origins ``home`` and
#: ``lose`` computed from it, ``owners_of``' division and the unused
#: ``owners`` argument (plane.py -6 with the new peel rule; runtime.py
#: and mp_engine.py -1 each), and ``TileGrid.bounds``' own clipping. What
#: remains is the rule in ``TileGrid`` (``lead``, ``edges``, ``tile_of``
#: on arrays) and the reach into the leading cell that ``coarsen_offsets``
#: must add for offsets of two or more whole tiles (tiling.py +17). It
#: buys, on the ledger (alternated parent/change pairs in CHANGES.md, 0
#: failed): ``sw_vertex_default_256`` overhead_x 1.349 [IQR 1.336, 1.379]
#: -> 1.002 [0.990, 1.027] (10/10 lower), ``sw_tiled_inline_1024`` 1.041
#: -> 0.870 (5/5), ``sw_tiled_mp_2048`` 1.278 -> 1.229 (6/8);
#: ``serve_http_small`` (3.975 -> 3.994) stayed inside its bound.
#:
#: Raised again, core 6074 -> 6115 and analysis 6001 -> 6042, by exactly
#: the net growth of the plan memo (a solve whose shape was seen before
#: skips classification, kernel emission and coarsening), after paying
#: with what it subsumes: ``flatsweep._code`` and the per-kernel
#: ``_sweeps`` / ``_sweep_sources`` recompiles (one template per shape
#: now holds the code), ``_read_source``'s own ``lru_cache`` (the source
#: facts live in the same memo), the hand-rolled skew-plan LRU and its
#: lock (``repro.util.lru.LRU``), and the data-stride row-scan matcher,
#: merged into the constant-stride one (classify.py -62 in all). What
#: remains: the plan signature, the content digest, the data-free check
#: and the bind path (codegen.py +60), templates with name recipes and
#: per-binding closures (flatsweep.py +31), the data-free app view
#: (infer.py +12), the dense-stencil geometry memo and the shared
#: ``levels()`` (tiling.py +39), and the bounded span deque (trace.py
#: +2). It buys, on the ledger (alternated parent/change pairs in
#: CHANGES.md, 0 failed): ``serve_http_small`` overhead_x 3.770 [IQR
#: 3.699, 4.017] -> 3.113 (10/10 lower), cpu_s 0.0153 -> 0.0121 (9/10);
#: ``sw_vertex_default_256`` 0.999 -> 0.803 (5/5), ``sw_tiled_inline_1024``
#: 0.811 -> 0.764 (5/5), ``sw_tiled_mp_2048`` 1.139 -> 1.094 (4/5).
#:
#: Core lowered, 6115 -> 6095, and the knob ceiling 27 -> 26: the dead
#: ``threads_per_place`` field is gone (``run_threaded`` runs one worker
#: per place, so the pool size it set never mattered), and the in-process
#: runtime no longer goes through ``GlobalRuntime``: it builds a
#: ``PlaceGroup`` and ``run_threaded`` starts and joins one thread per
#: alive place itself, which drops the engine hook-up, the shutdown and
#: ``RunReport.per_place_activities`` (config.py -3, runtime.py -18,
#: worker.py +1).
#:
#: Core lowered, 6095 -> 6075 (the change before left it at 6108, over
#: its ceiling), and analysis 6042 -> 6032 (it had left 6047). The mp
#: master steps the in-process engines' ``TileRunState`` wavefront in
#: rounds and recovers by ``TilePlane.lose`` plus ``TileRunState.build``,
#: so its ``levels()`` schedule, ``depth_of`` map, ``computed`` set,
#: depth-ordered recovery drain, ``handle_victims`` / ``poll_faults``
#: helpers and the unreachable all-places-dead branch are gone
#: (mp_engine.py -37), as is ``TilePlane.lose``'s lost-tile list. The
#: three "trace span or no-op" copies are one ``trace.phase_span``
#: (runtime.py -10, trace.py +5). ``TileRunState`` takes the plane, the
#: place ids and a push callback instead of an ``ExecutionState``
#: (tiling.py +5, recovery.py +1), and ``run_tiles`` takes its caller's
#: batch halo instead of building it again (plane.py +3). Analysis pays
#: back that +5 with real deletions: the tree kernel's two copies of the
#: batched ``compute_level`` call are one ``_compute_level``, its row
#: grouping loop is one ``np.split``, and the tensor plan cache is the
#: shared ``LRU`` (domainkern.py -15).
#:
#: Core lowered, 6075 -> 5931. The mp engine runs under the runtime's one
#: master loop (``_initialize``, ``run_inline`` turns, ``execute_tiles``,
#: ``recover_tiled``, one ``RunReport``), so ``run_mp``'s own loop, its
#: round and recovery closures, its missing-cells check (now the shared
#: loop's), ``MPRunStats``, ``_publish_master_metrics``, the worker trace
#: buffer and ``trace`` request, and ``DPX10Runtime._run_mp`` are gone;
#: what stays is transport: the place process, the pipes, and an
#: ``MPPlaces`` place group (batch executor, SIGKILL, pool-spare and
#: ``redist`` recovery hooks) (mp_engine.py -165, runtime.py -8).
#: ``execute_tiles`` takes the executor slot and the places' own batch
#: spans, and builds no master halo for mp batches (tiling.py +18,
#: worker.py +4); ``recover_tiled`` calls the place group's hooks and the
#: passes lose a redundant liveness check (recovery.py +2); and a dag
#: pickles without its bound results, which a pooled spare's init needs
#: (dag.py +5).
#:
#: Core lowered, 5931 -> 5562. Every run executes over one ``TilePlane``
#: and one ``TileRunState``: with no tile plan the run is the grid of
#: 1×1 tiles (``dag.coarsen(1, 1)``) in process too, and the per-vertex
#: reference differs only in its unit executor (``execute_vertex``, which
#: reads and writes the plane and releases per-cell indegrees) and its
#: re-home rule inside the one ``recover_tiled``. So ``vertex_store.py``
#: (-247), ``recover`` / ``recover_from_snapshot`` / ``_install`` and the
#: ``_restartable`` indirection (recovery.py -146), the per-vertex result
#: binding, store set-up and ``tiled is None`` branches (runtime.py -68)
#: are gone. It adds the 1×1 grid's vectorized set-up (the cellwise
#: activity mask, ``TilePlane.home`` over ``Dist.places_of``, and the
#: irregular coarsening as array operations; tiling.py +43, plane.py
#: +17), the inactive-cell read through the one binding, the lazily
#: seeded placement RNGs and the survivors' accounting of a batch an mp
#: place died in (worker.py +29, config.py +4 of docstring).
#:
#: Core lowered, 5562 -> 5560. An unpooled mp run's shared plane is its
#: result: ``ShmArena.unlink`` once every place attached, a ``close`` that
#: drops handles but never a mapping an array views, ``collect`` copying
#: only pooled planes, and ``as_bulk`` handing back a read-only view of a
#: finished plane (shm.py, mp_engine.py, plane.py, dag.py of docstring);
#: ``TiledDag.successors`` is CSR (``_csr``, ``_out_edges``; tiling.py).
#: Paid inside core: ``DPX10Config.__post_init__`` checks its enum and
#: lower-bound fields from two tables, and ``_PlaceProc.recv_reply`` has
#: one receive loop for both the blocking and the timed pipe.
CEILINGS = {
    "src/repro/core": 5560,
    "src/repro/analysis": 6032,
}

MAX_CONFIG_FIELDS = 26


def line_counts(package: str) -> dict:
    """``{module file name: line count}`` for the package's own modules."""
    folder = os.path.join(ROOT, package)
    counts = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as fh:
                counts[name] = sum(1 for _ in fh)
    return counts


def main() -> int:
    failed = False
    for package, ceiling in CEILINGS.items():
        counts = line_counts(package)
        for name, n in counts.items():
            print(f"{n:7d} {package}/{name}")
        total = sum(counts.values())
        verdict = "ok" if total <= ceiling else "OVER BUDGET"
        print(f"{total:7d} {package} total (ceiling {ceiling}): {verdict}\n")
        failed = failed or total > ceiling
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.config import DPX10Config

    nfields = len(dataclasses.fields(DPX10Config))
    verdict = "ok" if nfields <= MAX_CONFIG_FIELDS else "OVER BUDGET"
    print(f"{nfields:7d} DPX10Config fields (ceiling {MAX_CONFIG_FIELDS}): {verdict}")
    failed = failed or nfields > MAX_CONFIG_FIELDS
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
