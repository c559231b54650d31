"""Tests for the tile-granular execution engine (repro.core.tiling).

The load-bearing property: for every built-in pattern and any tile shape
the coarsening accepts, tiled execution produces exactly the matrix the
per-vertex path produces — including under an injected place failure —
and ``tile_shape=(1, 1)`` routes through the legacy path untouched.
"""

import numpy as np
import pytest

import repro.patterns  # noqa: F401 - registers the built-in patterns
from repro.apgas.failure import FaultPlan
from repro.apps.lps import solve_lps
from repro.apps.smith_waterman import solve_sw
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.tiling import TileGrid, coarsen_offsets
from repro.errors import PatternError
from repro.patterns.antidiag_band import AntiDiagonalDag
from repro.patterns.base import PATTERNS, get_pattern
from repro.patterns.diagonal import DiagonalDag
from repro.patterns.full_row import FullRowDag
from repro.patterns.grid import GridDag
from repro.patterns.interval import IntervalDag
from repro.util.rng import seeded_rng


class MixApp(DPX10App[int]):
    """Deterministic int app whose value depends on every dependency."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        acc = i * 31 + j * 7
        for v in vertices:
            acc = (acc * 13 + int(v.get_result())) % 100003
        return acc


def make_dag(name, h=13, w=13):
    cls = get_pattern(name)
    return cls(h, w, 4) if name == "banded" else cls(h, w)


def run_matrix(name, tile_shape, engine="inline", fault_plans=()):
    dag = make_dag(name)
    cfg = DPX10Config(engine=engine, tile_shape=tile_shape)
    report = DPX10Runtime(
        MixApp(), dag, cfg, fault_plans=list(fault_plans)
    ).run()
    return dag.to_array(fill=-1, dtype=np.int64), report


# -- coarsening ----------------------------------------------------------------------
class TestCoarsen:
    def test_offset_clipping_rule(self):
        # (-1, -1) with 3x3 tiles stays within the neighbouring tiles
        assert coarsen_offsets(((-1, -1),), 3, 3) == (
            (-1, -1),
            (-1, 0),
            (0, -1),
        )
        # an offset that is a multiple of the tile edge maps to one tile
        assert coarsen_offsets(((-3, 0),), 3, 3) == ((-1, 0),)
        # a long reach spans several tile offsets
        assert coarsen_offsets(((-4, 0),), 3, 3) == ((-2, 0), (-1, 0))

    def test_tile_grid_geometry(self):
        g = TileGrid(10, 7, 4, 3)
        assert (g.nti, g.ntj) == (3, 3)
        assert g.tile_of(9, 6) == (2, 2)
        assert g.bounds(2, 2) == (8, 10, 6, 7)  # clipped at the edge

    def test_diagonal_coarsens_to_diagonal(self):
        tiled = DiagonalDag(6, 6).coarsen(3, 3)
        assert (tiled.height, tiled.width) == (2, 2)
        assert sorted((d.i, d.j) for d in tiled.get_dependency(1, 1)) == [
            (0, 0),
            (0, 1),
            (1, 0),
        ]

    def test_degenerate_one_by_one(self):
        base = DiagonalDag(5, 5)
        tiled = base.coarsen(1, 1)
        assert (tiled.height, tiled.width) == (5, 5)
        assert sorted((d.i, d.j) for d in tiled.get_dependency(2, 2)) == [
            (1, 1),
            (1, 2),
            (2, 1),
        ]

    def test_cyclic_coarsening_rejected(self):
        # {(-2, 1), (1, -2)} is acyclic per cell (ranking vector (-1, -1))
        # but its 3x3 coarsening contains both (0, 1) and (0, -1): a
        # genuine tile-level cycle the verifier must reject
        from repro.patterns.base import StencilDag

        class ZZ(StencilDag):
            offsets = ((-2, 1), (1, -2))

        with pytest.raises(PatternError, match="cyclic"):
            ZZ(9, 9).coarsen(3, 3)
        # the per-cell DAG itself is fine
        ZZ(9, 9).validate()

    def test_antidiag_needs_full_width_tiles(self):
        with pytest.raises(PatternError, match="cyclic"):
            AntiDiagonalDag(9, 9).coarsen(3, 3)
        # row strips prune the (0, +-1) tile offsets off the grid
        tiled = AntiDiagonalDag(9, 9).coarsen(3, 9)
        assert (tiled.height, tiled.width) == (3, 1)

    def test_full_row_enumerated_coarsening(self):
        # full_row depends on the whole previous row, so narrow tiles
        # create mutual same-row tile deps (rejected); full-width strips
        # coarsen to a clean chain
        with pytest.raises(PatternError, match="cyclic"):
            FullRowDag(6, 6).coarsen(3, 3)
        tiled = FullRowDag(6, 6).coarsen(2, 6)
        assert [
            sorted((d.i, d.j) for d in tiled.get_dependency(ti, 0))
            for ti in range(3)
        ] == [[], [(0, 0)], [(1, 0)]]

    def test_halo_is_exact_not_padded_frame(self):
        # grid pattern: the (-1, -1) corner cell is NOT a dependency of
        # any tile cell and must not be fetched (its tile may be running)
        tiled = GridDag(9, 9).coarsen(3, 3)
        rows, cols = tiled.halo_of(1, 1)
        halo = set(zip(rows.tolist(), cols.tolist()))
        assert halo == {(2, 3), (2, 4), (2, 5), (3, 2), (4, 2), (5, 2)}
        assert (2, 2) not in halo  # the corner

    def test_halo_skips_inactive_cells(self):
        tiled = IntervalDag(9, 9).coarsen(3, 3)
        rows, cols = tiled.halo_of(0, 1)
        for i, j in zip(rows.tolist(), cols.tolist()):
            assert i <= j

    def test_cells_in_wavefront_order(self):
        for name in sorted(PATTERNS):
            try:
                tiled = make_dag(name, 9, 9).coarsen(4, 4)
            except PatternError:
                # e.g. antidiag / full_row need full-width strips
                tiled = make_dag(name, 9, 9).coarsen(4, 9)
            base = tiled.base
            for ti in range(tiled.height):
                for tj in range(tiled.width):
                    if not tiled.is_active(ti, tj):
                        continue
                    rows, cols = tiled.cells_of(ti, tj)
                    seen = set()
                    for i, j in zip(rows.tolist(), cols.tolist()):
                        for d in base.get_dependency(i, j):
                            key = (d.i, d.j)
                            in_tile = (key[0], key[1]) in set(
                                zip(rows.tolist(), cols.tolist())
                            )
                            if in_tile:
                                assert key in seen, (name, (ti, tj), (i, j))
                        seen.add((i, j))

    def test_tiled_dag_validates(self):
        # the coarsened DAG is itself a well-formed Dag
        DiagonalDag(20, 20).coarsen(4, 4).validate()
        IntervalDag(20, 20).coarsen(4, 4).validate()

    def test_bad_tile_shape_rejected(self):
        with pytest.raises(Exception):
            DiagonalDag(6, 6).coarsen(0, 3)


# -- equivalence properties ------------------------------------------------------------
SHAPE_POOL = [(2, 2), (3, 5), (4, 4), (5, 3), (7, 7), (13, 13), (16, 16)]


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_tiled_matches_per_vertex_all_patterns(self, name):
        ref, _ = run_matrix(name, (1, 1))
        rng = seeded_rng(11, "tiling-prop", name)
        shapes = [(1, 1)] + [
            SHAPE_POOL[int(k)]
            for k in rng.choice(len(SHAPE_POOL), size=3, replace=False)
        ] + [(13, 13)]
        accepted = 0
        for shape in shapes:
            for engine in ("inline", "threaded"):
                try:
                    arr, _ = run_matrix(name, shape, engine=engine)
                except PatternError:
                    break  # this shape coarsens cyclically; fine
                np.testing.assert_array_equal(arr, ref, err_msg=f"{name} {shape} {engine}")
                accepted += 1
        assert accepted >= 2, f"no tile shape accepted for {name}"

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_tiled_survives_place_failure(self, name):
        ref, _ = run_matrix(name, (1, 1))
        # find a workable non-trivial shape for this pattern
        for shape in ((4, 4), (4, 13), (13, 13)):
            try:
                make_dag(name).coarsen(*shape)
            except PatternError:
                continue
            break
        arr, report = run_matrix(
            name,
            shape,
            engine="threaded",
            fault_plans=[FaultPlan(place_id=2, after_completions=40)],
        )
        np.testing.assert_array_equal(arr, ref, err_msg=f"{name} fault {shape}")
        assert report.recoveries == 1

    def test_sw_kernel_matches_per_vertex(self):
        rng = seeded_rng(3, "tiling-sw")
        s1 = "".join(rng.choice(list("ACGT"), 60))
        s2 = "".join(rng.choice(list("ACGT"), 45))
        app0, _ = solve_sw(s1, s2, DPX10Config(tile_shape=(1, 1)))
        for shape in ((7, 5), (16, 16), (64, 64)):
            app1, _ = solve_sw(
                s1, s2, DPX10Config(engine="threaded", tile_shape=shape)
            )
            assert app1.best_score == app0.best_score
            assert app1.alignment == app0.alignment

    def test_lps_kernel_matches_per_vertex(self):
        rng = seeded_rng(3, "tiling-lps")
        s = "".join(rng.choice(list("abc"), 57))
        app0, _ = solve_lps(s, DPX10Config(tile_shape=(1, 1)))
        for shape in ((6, 9), (16, 16), (64, 64)):
            app1, _ = solve_lps(
                s, DPX10Config(engine="threaded", tile_shape=shape)
            )
            assert app1.length == app0.length

    def test_sw_kernel_whole_matrix(self):
        # compare cell-for-cell, not just the headline score
        rng = seeded_rng(9, "tiling-sw-matrix")
        s1 = "".join(rng.choice(list("ACGT"), 33))
        s2 = "".join(rng.choice(list("ACGT"), 39))
        mats = []
        for shape in (None, (8, 8)):
            from repro.apps.smith_waterman import SWApp

            app = SWApp(s1, s2)
            dag = DiagonalDag(len(s1) + 1, len(s2) + 1)
            DPX10Runtime(app, dag, DPX10Config(tile_shape=shape)).run()
            mats.append(dag.to_array(fill=0, dtype=np.int64))
        np.testing.assert_array_equal(mats[0], mats[1])

    def test_mp_engine_tiled(self):
        rng = seeded_rng(5, "tiling-mp")
        s1 = "".join(rng.choice(list("ACGT"), 24))
        s2 = "".join(rng.choice(list("ACGT"), 24))
        a0, _ = solve_sw(
            s1, s2, DPX10Config(engine="mp", nplaces=2, tile_shape=(1, 1))
        )
        a1, _ = solve_sw(
            s1, s2, DPX10Config(engine="mp", nplaces=2, tile_shape=(8, 8))
        )
        assert a1.best_score == a0.best_score
        assert a1.alignment == a0.alignment


# -- legacy routing ---------------------------------------------------------------------
class TestLegacyRouting:
    def test_one_by_one_routes_through_per_vertex_path(self):
        cfg = DPX10Config(tile_shape=(1, 1), trace=True)
        dag = DiagonalDag(6, 6)
        report = DPX10Runtime(MixApp(), dag, cfg).run()
        assert report.tile_shape is None
        # legacy path: per-vertex trace events carry no tile id
        assert report.trace is not None
        assert all(ev.tile is None for ev in report.trace.events)
        assert all(ev.cells == 1 for ev in report.trace.events)

    def test_none_is_legacy_too(self):
        # no longer: None is planned, and (1, 1) is the only spelling of
        # the per-vertex path — still that path bit for bit
        def run(tile_shape):
            dag = DiagonalDag(6, 6)
            cfg = DPX10Config(nplaces=2, tile_shape=tile_shape, trace=True)
            report = DPX10Runtime(MixApp(), dag, cfg).run()
            return dag.to_array(fill=-1, dtype=np.int64), report

        planned, rep_planned = run(None)
        legacy, rep_legacy = run((1, 1))
        assert rep_planned.tile_shape == (6, 6)
        assert len(rep_planned.trace.tile_events()) == 1
        assert rep_legacy.tile_shape is None and rep_legacy.kernel is None
        assert len(rep_legacy.trace) == 36 and not rep_legacy.trace.tile_events()
        assert rep_legacy.cache_hits + rep_legacy.cache_misses > 0
        np.testing.assert_array_equal(planned, legacy)

    def test_tiled_trace_events_carry_tile_ids(self):
        cfg = DPX10Config(tile_shape=(3, 3), trace=True)
        dag = DiagonalDag(9, 9)
        report = DPX10Runtime(MixApp(), dag, cfg).run()
        events = report.trace.tile_events()
        assert len(events) == 9  # one event per tile
        assert {ev.tile for ev in events} == {
            (ti, tj) for ti in range(3) for tj in range(3)
        }
        assert sum(ev.cells for ev in events) == 81

    def test_static_schedule_conflicts_with_tiling(self):
        # tiles and cells share the ready-list drivers, and no other
        # schedule exists to conflict with them
        with pytest.raises(TypeError):
            DPX10Config(static_schedule=True, tile_shape=(4, 4))
        with pytest.raises(TypeError):
            DPX10Config(work_stealing=True, tile_shape=(4, 4))


# -- sanitizer and completions interplay ------------------------------------------------
class TestTiledRuntimeDetails:
    def test_completions_count_cells_not_tiles(self):
        dag = DiagonalDag(12, 12)
        report = DPX10Runtime(
            MixApp(), dag, DPX10Config(tile_shape=(4, 4))
        ).run()
        assert report.completions == 144
        assert report.active_vertices == 144

    def test_sanitized_tiled_run_passes(self):
        # sanitize forces the per-cell path inside tiles; a correct
        # pattern must still run clean
        dag = GridDag(10, 10)
        arr_ref, _ = run_matrix("grid", (1, 1))
        cfg = DPX10Config(tile_shape=(4, 4), sanitize=True)
        dag = make_dag("grid")
        DPX10Runtime(MixApp(), dag, cfg).run()
        np.testing.assert_array_equal(
            dag.to_array(fill=-1, dtype=np.int64), arr_ref
        )

    def test_progress_callback_fires_on_interval_crossings(self):
        seen = []
        cfg = DPX10Config(
            tile_shape=(4, 4),
            on_progress=lambda done, total: seen.append((done, total)),
            progress_interval=50,
        )
        dag = DiagonalDag(12, 12)
        DPX10Runtime(MixApp(), dag, cfg).run()
        # 144 cells in 16-cell tiles: crossings at 50 and 100 happen
        # mid-tile, so the callback fires on the covering tile boundary
        assert len(seen) == 2
        assert all(total == 144 for _, total in seen)

    def test_work_stealing_tiled(self):
        # tiles that run away from home (random placement): the write-back
        # and the halo reads are accounted against the execution place
        ref, _ = run_matrix("diagonal", (1, 1))
        dag = make_dag("diagonal")
        cfg = DPX10Config(
            engine="threaded", tile_shape=(3, 3), scheduler="random", seed=5
        )
        report = DPX10Runtime(MixApp(), dag, cfg).run()
        np.testing.assert_array_equal(
            dag.to_array(fill=-1, dtype=np.int64), ref
        )
        assert sum(report.per_place_executed.values()) == report.completions

    def test_mincomm_scheduler_tiled(self):
        ref, _ = run_matrix("grid", (1, 1))
        dag = make_dag("grid")
        cfg = DPX10Config(tile_shape=(3, 3), scheduler="mincomm")
        DPX10Runtime(MixApp(), dag, cfg).run()
        np.testing.assert_array_equal(
            dag.to_array(fill=-1, dtype=np.int64), ref
        )
