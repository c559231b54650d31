"""The granularity planner and the default path it puts every run on.

``tile_shape=None`` is *planned* (:func:`repro.core.tiling.plan_tiles`),
an explicit shape is exactly what it was, and ``(1, 1)`` is the one
spelling of the per-vertex reference. Every tiled run, planned or
explicit, tries the generated kernel first. The battery at the bottom is the
bit-identity law for the flip: every registry app on every engine under
a bare config equals the per-vertex reference, which equals the serial
oracle.
"""

import numpy as np
import pytest

from repro.analysis.registry import app_fixture, app_names
from repro.apgas.failure import FaultPlan
from repro.apps import serial
from repro.apps.smith_waterman import SWApp
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.shm import leaked_segments
from repro.core.tiling import PLANNED_TILE, plan_tiles
from repro.errors import DependencyRaceError, PatternError, RemoteComputeError
from repro.patterns import get_pattern
from repro.patterns.base import StencilDag
from repro.patterns.diagonal import DiagonalDag

from tests.analysis.fixtures import undeclared_read_target

ENGINES = ["inline", "threaded", "mp"]


def planned_shape(dag, **cfg):
    tiled = plan_tiles(dag, DPX10Config(**cfg))
    return None if tiled is None else (tiled.grid.tile_h, tiled.grid.tile_w)


class SumApp(DPX10App):
    value_dtype = np.int64

    def compute(self, i, j, vertices):
        return 1 + sum(int(v.get_result()) for v in vertices) % 1009


class OpaqueSWApp(SWApp):
    """SW whose ``compute()`` the classifier cannot lift (DP405), keeping
    the inherited hand ``compute_tile``: the fallback chain's middle rung."""

    def compute(self, i, j, vertices):
        return super().compute(i, j, vertices)


class ZigDag(StencilDag):
    """Acyclic by rank (1, 2), but a row strip both feeds and needs the
    strip below it: no tile shape short of the whole matrix coarsens."""

    offsets = ((1, -1), (-1, 0))


# -- the rule -----------------------------------------------------------------------
class TestShapeRule:
    @pytest.mark.parametrize(
        "h, w, want",
        [
            (300, 300, (128, 128)),  # square
            (50, 400, (50, 128)),  # wide
            (400, 50, (128, 50)),  # tall
            (20, 30, (20, 30)),  # sub-128: the whole matrix is one tile
        ],
    )
    def test_planned_tiles_are_128_capped_at_the_matrix(self, h, w, want):
        assert PLANNED_TILE == 128
        tiled = plan_tiles(DiagonalDag(h, w), DPX10Config())
        assert (tiled.grid.tile_h, tiled.grid.tile_w) == want

    # full_row is coarsened by enumeration (every cell reads a whole
    # row): keep it short
    @pytest.mark.parametrize("name, h, w", [("antidiag", 300, 200), ("full_row", 4, 130)])
    def test_row_reaching_patterns_fall_back_to_full_width_strips(self, name, h, w):
        dag = get_pattern(name)(h, w)
        with pytest.raises(PatternError):
            dag.coarsen(min(h, 128), 128)
        assert planned_shape(dag) == (min(h, 128), w)

    def test_a_pattern_no_shape_coarsens_stays_per_vertex(self):
        assert planned_shape(ZigDag(100, 4)) == (100, 4)  # one tile: fine
        dag = ZigDag(130, 4)
        assert plan_tiles(dag, DPX10Config()) is None
        report = DPX10Runtime(SumApp(), dag, DPX10Config(nplaces=2)).run()
        assert report.tile_shape is None and report.kernel is None
        assert report.completions == 130 * 4

    def test_bare_sw_257_runs_one_call_and_one_sweep_per_level(self, monkeypatch):
        # 257 = 1 + 2 * 128: the boundary row and column join the first
        # tile row and column, so the bare plan is a 2 x 2 grid of 3
        # levels, each one run_tiles call and one sweep (trailing 1-wide
        # tiles made it 3 x 3: 5 levels, 8 sweeps)
        from repro.analysis.flatsweep import FlatSweepKernel
        from repro.core import plane as plane_mod

        calls, sweeps = [], []
        real_run, real_sweep = plane_mod.run_tiles, FlatSweepKernel.sweep

        def run(*args):
            calls.append(len(args[4]))
            return real_run(*args)

        def sweep(self, *args):
            # the skew buffer carries a stack's tiles as a trailing axis
            sweeps.append(args[2].shape[2] if args[2].ndim == 3 else 1)
            return real_sweep(self, *args)

        monkeypatch.setattr(plane_mod, "run_tiles", run)
        monkeypatch.setattr(FlatSweepKernel, "sweep", sweep)
        rng = np.random.default_rng(7)
        x, y = ("".join(rng.choice(list("ACGT"), 256)) for _ in range(2))
        dag = DiagonalDag(257, 257)
        tiled = plan_tiles(dag, DPX10Config())
        assert (tiled.grid.nti, tiled.grid.ntj) == (2, 2) and len(tiled.levels()) == 3
        report = DPX10Runtime(SWApp(x, y), dag, DPX10Config()).run()
        assert report.tile_shape == (128, 128)
        assert calls == sweeps == [1, 2, 1]
        assert dag.to_array(fill=-1, dtype=np.int64).tolist() == serial.sw_matrix(x, y).tolist()

    def test_explicit_shapes_pass_through_untouched(self):
        dag = DiagonalDag(300, 300)
        tiled = plan_tiles(dag, DPX10Config(tile_shape=(5, 3)))
        assert (tiled.grid.tile_h, tiled.grid.tile_w) == (5, 3)
        assert plan_tiles(dag, DPX10Config(tile_shape=(1, 1))) is None
        # an explicit shape is the caller's: an unsound one raises, no fallback
        with pytest.raises(PatternError):
            plan_tiles(get_pattern("antidiag")(12, 12), DPX10Config(tile_shape=(4, 4)))


# -- which kernel a plan runs ----------------------------------------------------------
def run_report(name, **cfg):
    app, dag = app_fixture(name)
    return DPX10Runtime(app, dag, DPX10Config(**cfg)).run()


class TestKernelChoice:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_planned_tiles_try_the_generated_kernel(self, engine):
        report = run_report("sw", engine=engine, nplaces=2)
        assert report.tile_shape == (8, 8)
        assert report.kernel == "ANTIDIAG_WAVEFRONT"
        assert "8x8 tiles, ANTIDIAG_WAVEFRONT kernel" in report.summary()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explicit_shape_without_autokernel_keeps_the_hand_kernel(self, engine):
        # an explicit shape runs the generated kernel too, autokernel or
        # not. While the in-process engines swept one tile per call that
        # cost sw_tiled_inline_1024 +39%; sweeping a place's whole ready
        # list per call, it took that workload's overhead_x from ~2.25 to
        # ~1.8 (docs/TILING.md §4)
        for extra in ({}, {"autokernel": True}):
            report = run_report("sw", engine=engine, nplaces=2, tile_shape=(4, 4), **extra)
            assert (report.tile_shape, report.kernel) == ((4, 4), "ANTIDIAG_WAVEFRONT")
        # the hand compute_tile still runs where no kernel generates
        a, b = "GATTACAGATTACA", "GCATGCTGCATGC"
        want = serial.sw_matrix(a, b)
        app, dag = OpaqueSWApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)
        cfg = DPX10Config(engine=engine, nplaces=2, tile_shape=(4, 4))
        report = DPX10Runtime(app, dag, cfg).run()
        assert (report.tile_shape, report.kernel) == ((4, 4), "hand")
        assert np.array_equal(dag.to_array(fill=-1, dtype=np.int64), want)

    def test_autokernel_alone_is_legal_and_changes_nothing(self):
        report = run_report("sw", autokernel=True)
        assert (report.tile_shape, report.kernel) == ((8, 8), "ANTIDIAG_WAVEFRONT")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_opaque_app_gets_tiles_and_the_per_cell_loop(self, engine):
        report = run_report("matrix_chain", engine=engine, nplaces=2)
        assert report.tile_shape == (6, 6)
        assert report.kernel is None
        assert "per-cell loop" in report.summary()

    def test_per_vertex_reports_no_plan(self):
        report = run_report("sw", tile_shape=(1, 1))
        assert report.tile_shape is None and report.kernel is None
        assert report.summary().startswith("plan: per-vertex")
        assert report.to_dict()["tile_shape"] is None

    def test_sanitize_keeps_the_per_cell_loop(self):
        report = run_report("sw", sanitize=True)
        assert report.tile_shape == (8, 8) and report.kernel is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sanitize_keeps_the_per_cell_loop_on_every_engine(self, engine):
        # mp places follow the master's kernel decision: no hand kernel
        # slips in where the sanitized master chose the per-cell loop
        report = run_report("sw", engine=engine, nplaces=2, sanitize=True)
        assert report.tile_shape == (8, 8) and report.kernel is None

    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_a_seeded_race_still_raises_under_the_bare_sanitized_config(self, engine):
        app, dag = undeclared_read_target()
        cfg = DPX10Config(nplaces=2, engine=engine, sanitize=True)
        with pytest.raises(DependencyRaceError) as err:
            DPX10Runtime(app, dag, cfg).run()
        assert err.value.code == "DP301"

    def test_a_seeded_race_reaches_the_sanitizer_on_mp_places(self):
        # each place binds its dag to a live view of its plane, so the
        # undeclared read is checked there, not refused as an unbound dag
        app, dag = undeclared_read_target()
        cfg = DPX10Config(nplaces=2, engine="mp", sanitize=True)
        with pytest.raises(RemoteComputeError) as err:
            DPX10Runtime(app, dag, cfg).run()
        assert "DependencyRaceError" in err.value.remote_traceback
        assert "DP301" in err.value.remote_traceback
        assert leaked_segments() == []


# -- bare == (1, 1) == serial oracle, every app, every engine -------------------------
def _upper(matrix):
    return {(i, j): matrix[i, j] for i in range(len(matrix)) for j in range(i, len(matrix))}


def _full(matrix):
    return {(i, j): matrix[i, j] for i, j in np.ndindex(*matrix.shape)}


def _tree(tables, app):
    return {app.domain.to_cell(v): tables[v] for v in range(len(tables))}


#: registry app -> its repro.apps.serial oracle as ``{cell: value}``
SERIAL = {
    "lcs": lambda a: _full(serial.lcs_matrix(a.x, a.y)),
    "sw": lambda a: _full(serial.sw_matrix(a.str1, a.str2)),
    "nw": lambda a: _full(serial.nw_matrix(a.x, a.y)),
    "edit_distance": lambda a: _full(serial.edit_distance_matrix(a.x, a.y)),
    "lps": lambda a: _upper(serial.lps_matrix(a.s)),
    "knapsack": lambda a: _full(serial.knapsack_matrix(a.weights, a.values, a.capacity)),
    "mtp": lambda a: _full(serial.mtp_matrix(a.w_down, a.w_right)),
    "matrix_chain": lambda a: _upper(serial.matrix_chain_matrix(a.dims)),
    "tree_knapsack": lambda a: _tree(
        serial.tree_knapsack_tables(a.domain.parents, a.weights, a.values, a.capacity), a
    ),
    "tree_mis": lambda a: _tree(serial.tree_mis_tables(a.domain.parents, a.weights), a),
    "msa3": lambda a: {
        a.domain.to_cell(idx): v for idx, v in np.ndenumerate(serial.msa3_matrix(a.x, a.y, a.z))
    },
}


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) or isinstance(b, tuple):
        return tuple(a) == tuple(b)
    return a == b


def solve_cells(name, **cfg):
    """Every active cell of registry app ``name`` under ``cfg``."""
    app, dag = app_fixture(name)
    report = DPX10Runtime(app, dag, DPX10Config(nplaces=2, **cfg)).run()
    cells = {
        (i, j): dag.get_vertex(i, j).get_result()
        for i, j in dag.region
        if dag.is_active(i, j)
    }
    return cells, app, report


def assert_same_cells(got, want):
    assert got.keys() == want.keys()
    for cell, value in want.items():
        assert _same(got[cell], value), cell


@pytest.mark.parametrize("name", app_names())
def test_per_vertex_reference_matches_the_serial_oracle(name):
    cells, app, report = solve_cells(name, tile_shape=(1, 1))
    assert report.tile_shape is None
    if name not in SERIAL:
        pytest.skip(f"repro.apps.serial has no matrix oracle for {name}")
    oracle = SERIAL[name](app)
    assert_same_cells(cells, {c: oracle[c] for c in cells})


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", app_names())
def test_bare_config_matches_the_per_vertex_reference(name, engine):
    want, _, _ = solve_cells(name, tile_shape=(1, 1))
    reference, _, _ = solve_cells(name, engine=engine, tile_shape=(1, 1))
    bare, _, report = solve_cells(name, engine=engine)
    assert report.tile_shape is not None  # every registry pattern plans tiles
    assert_same_cells(reference, want)
    assert_same_cells(bare, want)
    assert leaked_segments() == []


@pytest.mark.parametrize("engine", ENGINES)
def test_bare_config_survives_a_mid_run_kill(engine):
    # big enough for a 3x3 grid of planned tiles, so the kill lands
    # between tiles with work still to lose
    rng = np.random.default_rng(20)
    a, b = ("".join(rng.choice(list("ACGT"), n)) for n in (280, 260))
    app, dag = SWApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)
    report = DPX10Runtime(
        app,
        dag,
        DPX10Config(nplaces=3, engine=engine),
        fault_plans=[FaultPlan(1, at_fraction=0.5)],
    ).run()
    assert report.tile_shape == (128, 128)
    assert report.kernel == "ANTIDIAG_WAVEFRONT"
    assert report.recoveries == 1 and report.final_alive_places == 2
    assert report.recomputed > 0
    want = serial.sw_matrix(a, b)
    assert np.array_equal(dag.to_array(fill=-1, dtype=np.int64), want)
    assert app.best_score == int(want.max())
    assert leaked_segments() == []


# -- an explicit shape: one kernel rule, every engine ---------------------------------------
@pytest.mark.parametrize("name", app_names())
def test_explicit_shape_runs_one_kernel_on_every_engine(name):
    # (2, 2) coarsens every registry pattern into several tiles; the
    # kernel plane.tile_kernel picks must not depend on the engine (the
    # mp master once skipped the cells-mode tree kernels)
    want, app, _ = solve_cells(name, tile_shape=(1, 1))
    kernels = {}
    for engine in ENGINES:
        cells, _, report = solve_cells(name, engine=engine, tile_shape=(2, 2))
        assert report.tile_shape == (2, 2)
        assert_same_cells(cells, want)
        kernels[engine] = report.kernel
    assert len(set(kernels.values())) == 1, kernels
    if name in SERIAL:
        oracle = SERIAL[name](app)
        assert_same_cells(want, {c: oracle[c] for c in want})
    assert leaked_segments() == []


@pytest.mark.parametrize("name", ["tree_knapsack", "tree_mis"])
def test_tree_kernels_run_on_mp_through_a_place_kill(name):
    want, _, _ = solve_cells(name, tile_shape=(1, 1))
    app, dag = app_fixture(name)
    report = DPX10Runtime(
        app,
        dag,
        DPX10Config(nplaces=3, engine="mp", tile_shape=(2, 2)),
        fault_plans=[FaultPlan(1, at_fraction=0.5)],
    ).run()
    assert report.kernel == "TREE_LEVEL_GATHER"
    assert report.recoveries == 1
    got = {c: dag.get_vertex(*c).get_result() for c in want}
    assert_same_cells(got, want)
    assert leaked_segments() == []
