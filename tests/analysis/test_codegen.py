"""Generated tile kernels are differential-tested against compute().

The interpreted per-vertex path is the oracle: for every non-OPAQUE app,
every engine, and several (deliberately awkward) tile shapes, the
``autokernel=True`` run must reproduce the untiled inline run
cell-for-cell — including one seeded chaos trial, where recovery
recomputes tiles through the generated kernel.
"""

import numpy as np
import pytest

from repro.analysis.classify import classify_app
from repro.analysis.codegen import AutoKernel, build_autokernel
from repro.analysis.registry import app_fixture, app_names
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.errors import ConfigurationError

from tests.analysis.fixtures import dep_guard_target

VECTORIZABLE = [
    n
    for n in app_names()
    if n
    not in (
        "cyk",
        "egg_drop",
        "matrix_chain",
        "viterbi",
        # the tree apps vectorize (TREE_LEVEL_GATHER) but hold object
        # values; their equivalence tests live in test_domain_kernels.py
        "tree_knapsack",
        "tree_mis",
    )
]
TILE_SHAPES = [(4, 4), (5, 3), (2, 7)]


def _run(name, **kw):
    app, dag = app_fixture(name)
    cfg = DPX10Config(**kw)
    DPX10Runtime(app, dag, cfg).run()
    return dag.to_array(fill=-1, dtype=np.int64)


def _oracle(name):
    # the per-vertex interpreted path: the differential oracle
    return _run(name, engine="inline", tile_shape=(1, 1))


class TestBuild:
    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_every_vectorizable_app_builds(self, name):
        app, dag = app_fixture(name)
        kernel, cls = build_autokernel(app, dag)
        assert isinstance(kernel, AutoKernel)
        assert kernel.klass == cls.klass
        # row-sweep / row-scan kernels emit compute_tile; ANTIDIAG apps
        # get the flat-sweep form; domain kernels describe themselves
        assert (
            "def compute_tile" in kernel.source
            or "flat-sweep kernel" in kernel.source
            or kernel.klass in ("TENSOR_HYPERPLANE", "TREE_LEVEL_GATHER")
        )
        assert len(kernel.pads) == 4

    @pytest.mark.parametrize("name", ["cyk", "egg_drop", "viterbi"])
    def test_opaque_apps_return_none(self, name):
        app, dag = app_fixture(name)
        kernel, cls = build_autokernel(app, dag)
        assert kernel is None
        assert cls.klass == "OPAQUE"

    def test_antidiag_outside_the_flat_sweep_is_demoted_dp403(self):
        # the flat sweep is the only ANTIDIAG emitter: what it refuses
        # runs interpreted, bit-identical to the per-vertex oracle
        app, dag = dep_guard_target()
        assert classify_app(app, dag).klass == "ANTIDIAG_WAVEFRONT"
        kernel, cls = build_autokernel(app, dag)
        assert kernel is None
        assert cls.klass == "OPAQUE"
        assert [f.code for f in cls.report.findings] == ["DP403"]
        DPX10Runtime(app, dag, DPX10Config(tile_shape=(1, 1))).run()
        want = dag.to_array(fill=-1, dtype=np.int64)
        for extra in ({"engine": "inline"}, {"engine": "mp", "nplaces": 2}):
            app, dag = dep_guard_target()
            cfg = DPX10Config(tile_shape=(4, 5), autokernel=True, **extra)
            DPX10Runtime(app, dag, cfg).run()
            assert np.array_equal(dag.to_array(fill=-1, dtype=np.int64), want)

    def test_build_is_deterministic(self):
        # mp workers rebuild post-fork; both builds must emit the same
        # source (the generated fn cannot cross the pipe)
        app, dag = app_fixture("sw")
        k1, _ = build_autokernel(app, dag)
        k2, _ = build_autokernel(app, dag)
        assert k1.source == k2.source
        assert k1.pads == k2.pads


class TestWholeTileEquivalence:
    @pytest.mark.parametrize("name", VECTORIZABLE)
    @pytest.mark.parametrize("shape", TILE_SHAPES)
    def test_inline_tiled_equals_untiled(self, name, shape):
        want = _oracle(name)
        got = _run(name, engine="inline", tile_shape=shape, autokernel=True)
        assert np.array_equal(want, got)

    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_threaded_engine(self, name):
        want = _oracle(name)
        got = _run(
            name,
            engine="threaded",
            nplaces=2,
            tile_shape=(4, 4),
            autokernel=True,
        )
        assert np.array_equal(want, got)

    @pytest.mark.parametrize("name", VECTORIZABLE)
    @pytest.mark.parametrize("shm", [True, False])
    def test_mp_engine(self, name, shm):
        want = _oracle(name)
        got = _run(
            name,
            engine="mp",
            nplaces=2,
            tile_shape=(4, 4),
            autokernel=True,
            shm=shm,
        )
        assert np.array_equal(want, got)

    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_one_chaos_seed(self, name):
        from repro.chaos.schedule import ChaosSchedule

        want = _oracle(name)
        app, dag = app_fixture(name)
        schedule = ChaosSchedule.generate(11, 2, int(dag.height * dag.width))
        cfg = DPX10Config(
            engine="mp",
            nplaces=2,
            tile_shape=(4, 4),
            autokernel=True,
            chaos=schedule,
        )
        DPX10Runtime(app, dag, cfg).run()
        got = dag.to_array(fill=-1, dtype=np.int64)
        assert np.array_equal(want, got)


class TestGating:
    def test_autokernel_requires_tiling(self):
        # only the per-vertex spelling has no generated-kernel form; on
        # its own the flag is what planned tiles do anyway
        with pytest.raises(ConfigurationError):
            DPX10Config(tile_shape=(1, 1), autokernel=True)
        assert DPX10Config(autokernel=True).tile_shape is None

    def test_sanitize_keeps_interpreted_path(self):
        # the sanitizer instruments per-vertex compute(); a whole-tile
        # kernel would bypass it, so autokernel must stand down
        app, dag = app_fixture("lcs")
        cfg = DPX10Config(tile_shape=(4, 4), autokernel=True, sanitize=True)
        rt = DPX10Runtime(app, dag, cfg)
        rt.run()
        want = _oracle("lcs")
        assert np.array_equal(want, dag.to_array(fill=-1, dtype=np.int64))

    def test_opaque_app_falls_back_and_still_runs(self):
        app, dag = app_fixture("egg_drop")
        cfg = DPX10Config(tile_shape=(4, 4), autokernel=True)
        DPX10Runtime(app, dag, cfg).run()
        want = _oracle("egg_drop")
        assert np.array_equal(want, dag.to_array(fill=-1, dtype=np.int64))

    def test_generated_kernel_beats_hand_kernel(self):
        # precedence: the generated kernel runs even when the app ships
        # a hand-written compute_tile (sw does) — results identical
        app, dag = app_fixture("sw")
        cfg = DPX10Config(tile_shape=(4, 4), autokernel=True)
        DPX10Runtime(app, dag, cfg).run()
        want = _oracle("sw")
        assert np.array_equal(want, dag.to_array(fill=-1, dtype=np.int64))


class TestKernelContract:
    @pytest.mark.parametrize("name", VECTORIZABLE)
    def test_kernel_fills_exact_window(self, name):
        # drive the kernel directly over a whole-matrix window and
        # compare with a per-vertex fixpoint of compute()
        from repro.core.api import Vertex

        app, dag = app_fixture(name)
        kernel, _ = build_autokernel(app, dag)
        h, w = dag.height, dag.width
        window = np.zeros((h, w), dtype=app.value_dtype)
        assert kernel.fn(0, 0, window, 0, 0, h, w) is True

        values = {}
        remaining = [
            (i, j)
            for i in range(h)
            for j in range(w)
            if dag.is_active(i, j)
        ]
        while remaining:
            again = []
            for i, j in remaining:
                deps = [
                    d
                    for d in dag.get_dependency(i, j)
                    if dag.is_active(d.i, d.j)
                ]
                if all((d.i, d.j) in values for d in deps):
                    verts = [Vertex(d.i, d.j, values[(d.i, d.j)]) for d in deps]
                    values[(i, j)] = app.compute(i, j, verts)
                else:
                    again.append((i, j))
            assert len(again) < len(remaining), "dependency cycle?"
            remaining = again
        for (i, j), v in values.items():
            assert window[i, j] == v, (name, i, j, window[i, j], v)


# -- the level batch: many tiles, one sweep ---------------------------------------------
def _antidiag_instance(name):
    """A registry ANTIDIAG app at a size with interior *and* ragged tiles."""
    from repro.apps.banded_alignment import BandedEditDistanceApp
    from repro.apps.edit_distance import EditDistanceApp
    from repro.apps.lcs import LCSApp
    from repro.apps.lps import LPSApp
    from repro.apps.needleman_wunsch import NWApp
    from repro.apps.smith_waterman import SWApp
    from repro.patterns import BandedDiagonalDag, DiagonalDag, IntervalDag

    rng = np.random.default_rng(7)
    x = "".join(rng.choice(list("ACGT"), 18))
    y = "".join(rng.choice(list("ACGT"), 16))
    if name == "lps":
        return LPSApp(x), IntervalDag(len(x), len(x))
    if name == "banded":
        return (
            BandedEditDistanceApp(x, y),
            BandedDiagonalDag(len(x) + 1, len(y) + 1, 9),
        )
    app_cls = {
        "edit_distance": EditDistanceApp, "lcs": LCSApp, "nw": NWApp, "sw": SWApp
    }[name]
    return app_cls(x, y), DiagonalDag(len(x) + 1, len(y) + 1)


def _solved_plane(app, dag, tiled):
    """A finished plane holding the oracle, with every cell no tile reads
    as halo poisoned — so a tile that is not recomputed shows."""
    from repro.core.plane import TilePlane

    DPX10Runtime(app, dag, DPX10Config(tile_shape=(1, 1))).run()
    want = dag.to_array(fill=0, dtype=app.value_dtype)
    plane = TilePlane.allocate(want.shape, app.value_dtype, (4, 4))
    plane.owners[...] = 0
    read = np.zeros(want.shape, bool)
    for t in tiled.active_tiles():
        read[tiled.halo_of(*t)] = True
    plane.values[...] = np.where(read, want, -77)
    plane.finished[...] = 1
    return plane, want


class TestLevelBatch:
    ANTIDIAG = ["banded", "edit_distance", "lcs", "lps", "nw", "sw"]

    @pytest.mark.parametrize("name", ANTIDIAG)
    def test_batch_is_bit_identical_to_solo_and_no_more_general(self, name):
        from collections import Counter

        from repro.core.plane import run_tiles, tile_kernel

        app, dag = _antidiag_instance(name)
        kernel, cls = build_autokernel(app, dag)
        assert cls.klass == "ANTIDIAG_WAVEFRONT"
        tiled = dag.coarsen(4, 4)
        kernel = tile_kernel(app, tiled, kernel)
        tiles = tiled.active_tiles()
        np.random.default_rng(3).shuffle(tiles)
        tiles = [tuple(t) for t in tiles]

        # what each tile runs alone: its own profile on its own geometry
        alone = Counter()
        for ti, tj in tiles:
            r0, r1, c0, c1 = tiled.grid.bounds(ti, tj)
            profile, _ = kernel.fn.prepare(r0, c0, r1 - r0, c1 - c0)
            alone[(r1 - r0, c1 - c0, profile)] += 1

        ran = Counter()
        real = kernel.fn.sweep

        def spy(profile, leaves, windows, oi, oj, h, w):
            ran[(h, w, profile)] += len(windows)
            return real(profile, leaves, windows, oi, oj, h, w)

        kernel.fn.sweep = spy
        batch, want = _solved_plane(app, dag, tiled)
        run_tiles(batch, tiled, app, kernel, tiles, 0)
        kernel.fn.sweep = real
        solo, _ = _solved_plane(app, dag, tiled)
        for t in tiles:
            run_tiles(solo, tiled, app, kernel, [t], 0)

        mask = np.zeros(want.shape, bool)
        for t in tiles:
            mask[tiled.cells_of(*t)] = True
        assert np.array_equal(batch.values[mask], want[mask])
        assert np.array_equal(batch.values, solo.values)
        # every tile swept under exactly the variant it would have alone —
        # interior tiles folded, never merged into a boundary tile's masks
        assert ran == alone
        nleaves = len(kernel.fn.general_profile)
        assert any(
            n > 1 and sum(s == "M" for s in profile) < nleaves
            for (_h, _w, profile), n in ran.items()
        )

    def test_scalar_leaf_values_split_groups(self):
        # a dependency-free scalar that varies from tile to tile is part
        # of the profile: such tiles must not share one sweep
        from repro.core.plane import run_tiles, tile_kernel

        app, dag = _antidiag_instance("sw")
        kernel, _ = build_autokernel(app, dag)
        tiled = dag.coarsen(4, 4)
        kernel = tile_kernel(app, tiled, kernel)
        fn = kernel.fn
        sizes = []
        real_sweep, real_leaves = fn.sweep, fn._leaves_fn
        fn.sweep = lambda profile, leaves, windows, *geo: (
            sizes.append(len(windows)),
            real_sweep(profile, leaves, windows, *geo),
        )
        pair = [(1, 2), (2, 1)]  # two interior tiles of one level
        plane, _ = _solved_plane(app, dag, tiled)
        run_tiles(plane, tiled, app, kernel, pair, 0)
        assert sizes == [2]

        scalar = next(
            i for i, s in enumerate(fn.prepare(4, 4, 4, 4)[0]) if not isinstance(s, str)
        )

        def gap_by_tile_row(r0, c0, h, w):
            leaves = list(real_leaves(r0, c0, h, w))
            leaves[scalar] = leaves[scalar] - r0
            return tuple(leaves)

        fn._leaves_fn = gap_by_tile_row
        del sizes[:]
        batch, _ = _solved_plane(app, dag, tiled)
        run_tiles(batch, tiled, app, kernel, pair, 0)
        assert sizes == [1, 1]
        solo, _ = _solved_plane(app, dag, tiled)
        for t in pair:
            run_tiles(solo, tiled, app, kernel, [t], 0)
        assert np.array_equal(batch.values, solo.values)


class TestPlanCache:
    def test_plan_cache_is_bounded_and_eviction_keeps_results(self):
        # a pooled place meets a new ragged edge shape per job size; the
        # skew-plan cache must not keep them all
        from repro.analysis import flatsweep

        app, dag = _antidiag_instance("sw")
        kernel, _ = build_autokernel(app, dag)
        h, w = dag.height, dag.width

        def solve():
            window = np.zeros((h, w), dtype=app.value_dtype)
            assert kernel.fn(0, 0, window, 0, 0, h, w) is True
            return window

        first = solve()
        key = next(k for k in flatsweep._PLAN_CACHE if k[2:] == (h, w))
        for hh in range(1, 21):
            for ww in range(1, 11):
                flatsweep._plan_for(1, kernel.pads, hh + 100, ww + 100)
        assert len(flatsweep._PLAN_CACHE) <= flatsweep._PLAN_CACHE_SIZE
        assert key not in flatsweep._PLAN_CACHE  # evicted: the next solve rebuilds it
        assert np.array_equal(solve(), first)
        assert key in flatsweep._PLAN_CACHE
