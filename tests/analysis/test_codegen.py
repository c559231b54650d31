"""Generated tile kernels are differential-tested against compute().

The interpreted per-vertex path is the oracle: for every non-OPAQUE app,
every engine, and several (deliberately awkward) tile shapes, the
``autokernel=True`` run must reproduce the untiled inline run
cell-for-cell — including one seeded chaos trial, where recovery
recomputes tiles through the generated kernel.
"""

import re

import numpy as np
import pytest

from repro.analysis.classify import classify_app
from repro.analysis.codegen import AutoKernel, build_autokernel
from repro.analysis.registry import app_fixture, app_names
from repro.core.api import DPX10App, VertexId, dependency_map
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.runtime import DPX10Runtime
from repro.errors import ConfigurationError
from repro.patterns import BandedDiagonalDag, GridDag
from repro.patterns.base import StencilDag

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


def _lagged_knapsack():
    """Unbounded knapsack whose skip edge lags ``lags[i - 1]`` columns."""
    from repro.apps.unbounded_knapsack import UnboundedKnapsackApp, UnboundedKnapsackDag

    weights, values, lags = [3, 5, 2, 4], [4, 7, 2, 6], [1, 2, 1, 3]

    class Dag(UnboundedKnapsackDag):
        def get_dependency(self, i, j):
            deps = super().get_dependency(i, j)
            if i > 0 and j >= lags[i - 1]:
                deps.append(VertexId(i - 1, j - lags[i - 1]))
            return deps

        def get_anti_dependency(self, i, j):
            anti = super().get_anti_dependency(i, j)
            if i + 1 < self.height and j + lags[i] < self.width:
                anti.append(VertexId(i + 1, j + lags[i]))
            return anti

    class App(UnboundedKnapsackApp):
        def compute(self, i, j, vertices):
            if i == 0:
                return 0
            dep = dependency_map(vertices)
            best = dep.get((i - 1, j - self.lags[i - 1]), 0)
            w, v = self.weights[i - 1], self.values[i - 1]
            if w <= j:
                take = dep[(i, j - w)] + v
                if take > best:
                    best = take
            return best

    app = App(weights, values, 13)
    app.lags = lags
    return app, Dag(weights, 13)


_LAGS = (1, 3, 2, 1, 4, 2, 3, 1, 2, 4, 1, 3, 2)


class _LaneShiftDag(Dag):
    """Each cell reads the row above, and ``_LAGS[j]`` columns left of it."""

    def __init__(self):
        super().__init__(height=10, width=len(_LAGS))

    def get_dependency(self, i, j):
        if i == 0:
            return []
        deps = [VertexId(i - 1, j)]
        if j >= _LAGS[j]:
            deps.append(VertexId(i - 1, j - _LAGS[j]))
        return deps

    def get_anti_dependency(self, i, j):
        if i + 1 == self.height:
            return []
        return [VertexId(i + 1, j)] + [
            VertexId(i + 1, k) for k in range(self.width) if k - _LAGS[k] == j
        ]


class _LaneShiftApp(DPX10App):
    """ELEMENTWISE, but the shifted read's column data varies per lane."""

    value_dtype = np.int64

    def __init__(self):
        self.lags = list(_LAGS)

    def compute(self, i, j, vertices):
        if i == 0:
            return j
        dep = dependency_map(vertices)
        return max(dep[(i - 1, j)], dep.get((i - 1, j - self.lags[j]), 0) + 1)


def _lane_shift_rows():
    return _LaneShiftApp(), _LaneShiftDag()


class _BandRowsDag(BandedDiagonalDag):
    offsets = ((-1, -1), (-1, 0))


class _BandRowsApp(DPX10App):
    """An earlier-row stencil on a partially active (banded) dag."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        return max(dep.get((i - 1, j - 1), 0) + 2, dep.get((i - 1, j), 0) + j)


def _band_rows():
    return _BandRowsApp(), _BandRowsDag(13, 11, 3)


class _DepIndexRowsDag(StencilDag):
    offsets = ((-1, -1), (-1, 0))


class _DepIndexRowsApp(DPX10App):
    """ELEMENTWISE, indexing ``self`` data (numeric and string) by
    dependency values: the sweep itself gathers from those closures."""

    value_dtype = np.int64

    def __init__(self):
        rng = np.random.default_rng(3)
        self.table = rng.integers(0, 8, size=8).tolist()
        self.s = "".join(rng.choice(list("AC"), 8))

    def compute(self, i, j, vertices):
        if i == 0:
            return j % 7
        dep = dependency_map(vertices)
        up = dep[(i - 1, j)]
        mixed = (self.table[up] + dep.get((i - 1, j - 1), 0)) % 7
        return mixed + int(self.s[up] == "A")


class _DepIndexWaveDag(StencilDag):
    offsets = ((-1, 0), (0, -1), (-1, -1))


class _DepIndexWaveApp(DPX10App):
    """ANTIDIAG, indexing a 2-D ``self`` table by two dependency values."""

    value_dtype = np.int64

    def __init__(self):
        self.mix = np.random.default_rng(5).integers(0, 8, size=(8, 8))

    def compute(self, i, j, vertices):
        if i == 0 or j == 0:
            return (i + 2 * j) % 8
        dep = dependency_map(vertices)
        return (int(self.mix[dep[(i - 1, j)], dep[(i, j - 1)]]) + dep[(i - 1, j - 1)]) % 8


def _dep_index_rows():
    return _DepIndexRowsApp(), _DepIndexRowsDag(11, 13)


def _dep_index_wave():
    return _DepIndexWaveApp(), _DepIndexWaveDag(12, 13)


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
        # one kernel type per class
        assert type(kernel.fn).__name__ == {
            "ELEMENTWISE": "RowKernel",
            "ANTIDIAG_WAVEFRONT": "FlatSweepKernel",
            "ROW_SCAN_PREFIX": "RowScanKernel",
            "TENSOR_HYPERPLANE": "TensorHyperplaneKernel",
            "TREE_LEVEL_GATHER": "TreeLevelKernel",
        }[kernel.klass]
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

    def test_row_scan_outside_the_slice_form_is_demoted_dp403(self):
        # the row the base reads sits at a data-dependent column: no
        # constant-offset slice expresses it, so the app runs interpreted
        app, dag = _lagged_knapsack()
        assert classify_app(app, dag).klass == "ROW_SCAN_PREFIX"
        kernel, cls = build_autokernel(app, dag)
        assert kernel is None
        assert cls.klass == "OPAQUE"
        assert [f.code for f in cls.report.findings] == ["DP403"]
        DPX10Runtime(app, dag, DPX10Config(tile_shape=(1, 1))).run()
        want = dag.to_array(fill=-1, dtype=np.int64)
        app, dag = _lagged_knapsack()
        DPX10Runtime(app, dag, DPX10Config(tile_shape=(3, 4), autokernel=True)).run()
        assert np.array_equal(dag.to_array(fill=-1, dtype=np.int64), want)

    @pytest.mark.parametrize("make", [_lane_shift_rows, _band_rows])
    def test_rows_outside_the_slice_form_are_demoted_dp403(self, make):
        # a column shift that varies per lane has no per-row slice, and a
        # row kernel has no activity masks: both apps run interpreted
        app, dag = make()
        assert classify_app(app, dag).klass == "ELEMENTWISE"
        kernel, cls = build_autokernel(app, dag)
        assert kernel is None
        assert cls.klass == "OPAQUE"
        assert [f.code for f in cls.report.findings] == ["DP403"]
        DPX10Runtime(app, dag, DPX10Config(tile_shape=(1, 1))).run()
        want = dag.to_array(fill=-1, dtype=np.int64)
        for extra in ({"engine": "inline"}, {"engine": "mp", "nplaces": 2}):
            app, dag = make()
            cfg = DPX10Config(tile_shape=(4, 5), autokernel=True, **extra)
            DPX10Runtime(app, dag, cfg).run()
            assert np.array_equal(dag.to_array(fill=-1, dtype=np.int64), want)

    @pytest.mark.parametrize(
        "make, klass, fn",
        [
            (_dep_index_rows, "ELEMENTWISE", "RowKernel"),
            (_dep_index_wave, "ANTIDIAG_WAVEFRONT", "FlatSweepKernel"),
        ],
    )
    def test_self_data_indexed_by_a_dependency_runs_in_the_sweep(self, make, klass, fn):
        # the gather sits in the sweep, not the prelude: every sweep
        # variant must see the closures its rendering added
        app, dag = make()
        kernel, cls = build_autokernel(app, dag)
        assert cls.klass == klass
        assert type(kernel.fn).__name__ == fn
        DPX10Runtime(app, dag, DPX10Config(tile_shape=(1, 1))).run()
        want = dag.to_array(fill=-1, dtype=np.int64)
        assert len(np.unique(want)) > 4  # the tables, not a constant, decide
        for extra in (
            {"engine": "inline"},
            {"engine": "mp", "nplaces": 2, "shm": True},
            {"engine": "mp", "nplaces": 2, "shm": False},
        ):
            app, dag = make()
            cfg = DPX10Config(tile_shape=(4, 5), autokernel=True, **extra)
            report = DPX10Runtime(app, dag, cfg).run()
            assert report.kernel == klass
            assert np.array_equal(dag.to_array(fill=-1, dtype=np.int64), want)

    def test_build_is_deterministic(self):
        # mp workers rebuild post-fork; both builds must emit the same
        # source (the generated fn cannot cross the pipe)
        app, dag = app_fixture("sw")
        k1, _ = build_autokernel(app, dag)
        k2, _ = build_autokernel(app, dag)
        assert k1.fn.source == k2.fn.source
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
class _StridedGainDag(StencilDag):
    offsets = ((-1, 0), (0, -3))


class _StridedGainApp(DPX10App):
    """A row scan with a literal stride of 3 and a lane-varying add."""

    value_dtype = np.int64

    def __init__(self, gain):
        self.gain = gain

    def compute(self, i, j, vertices):
        if i == 0:
            return 0
        dep = dependency_map(vertices)
        best = dep[(i - 1, j)]
        if j >= 3:
            best = max(best, dep[(i, j - 3)] + int(self.gain[i, j]))
        return best


def _row_scan_instance(name):
    """A ROW_SCAN app with ragged tiles whose stride outreaches the tile
    width (mtp: interior tiles to share sweeps), and its tile shape."""
    from repro.apps.mtp import MTPApp, make_mtp_weights
    from repro.apps.unbounded_knapsack import UnboundedKnapsackApp, UnboundedKnapsackDag

    if name == "mtp":
        w_down, w_right = make_mtp_weights(19, 18, seed=7)
        return MTPApp(w_down, w_right), GridDag(19, 18), (4, 4)
    if name == "unbounded_knapsack":
        weights, values = [3, 9, 5, 6, 2, 7, 4, 8, 1], [4, 13, 7, 9, 2, 10, 5, 12, 1]
        dag = UnboundedKnapsackDag(weights, 30)
        return UnboundedKnapsackApp(weights, values, 30), dag, (4, 4)
    gain = np.random.default_rng(7).integers(-3, 6, size=(17, 23))
    return _StridedGainApp(gain), _StridedGainDag(17, 23), (3, 2)


def _batch_instance(name):
    """An app at a size with interior *and* ragged tiles, and its tile
    shape: a registry ANTIDIAG or ELEMENTWISE app, or a row-scan
    instance."""
    from repro.apps.banded_alignment import BandedEditDistanceApp
    from repro.apps.common_substring import CommonSubstringApp
    from repro.apps.edit_distance import EditDistanceApp
    from repro.apps.knapsack import KnapsackApp, KnapsackDag
    from repro.apps.lcs import LCSApp
    from repro.apps.lps import LPSApp
    from repro.apps.needleman_wunsch import NWApp
    from repro.apps.smith_waterman import SWApp
    from repro.patterns import DiagChainDag, DiagonalDag, IntervalDag

    if name in TestLevelBatch.ROW_SCAN:
        return _row_scan_instance(name)
    if name == "knapsack":
        # ragged both ways, and weights up to 9 reach past the left
        # neighbour of a 4-wide tile
        weights, values = [3, 9, 5, 6, 2, 7, 4, 8, 1, 6], [4, 13, 7, 9, 2, 10, 5, 12, 1, 8]
        return KnapsackApp(weights, values, 30), KnapsackDag(weights, 30), (4, 4)
    rng = np.random.default_rng(7)
    x = "".join(rng.choice(list("ACGT"), 18))
    y = "".join(rng.choice(list("ACGT"), 16))
    if name == "common_substring":
        return CommonSubstringApp(x, y), DiagChainDag(len(x) + 1, len(y) + 1), (4, 4)
    if name == "lps":
        return LPSApp(x), IntervalDag(len(x), len(x)), (4, 4)
    if name == "banded":
        return (
            BandedEditDistanceApp(x, y),
            BandedDiagonalDag(len(x) + 1, len(y) + 1, 9),
            (4, 4),
        )
    app_cls = {
        "edit_distance": EditDistanceApp, "lcs": LCSApp, "nw": NWApp, "sw": SWApp
    }[name]
    return app_cls(x, y), DiagonalDag(len(x) + 1, len(y) + 1), (4, 4)


def _stack_size(fn, stack) -> int:
    """The tiles a sweep's stack holds: a flat sweep's skew buffer carries
    them as a trailing axis (none for a lone tile), a row kernel's window
    stack as its leading one."""
    from repro.analysis.flatsweep import FlatSweepKernel

    if isinstance(fn, FlatSweepKernel):
        return stack.shape[2] if stack.ndim == 3 else 1
    return len(stack)


def _solved_plane(app, dag, tiled):
    """A finished plane holding the oracle, with every cell no tile reads
    as halo poisoned — so a tile that is not recomputed shows."""
    from repro.core.plane import TilePlane

    DPX10Runtime(app, dag, DPX10Config(tile_shape=(1, 1))).run()
    want = dag.to_array(fill=0, dtype=app.value_dtype)
    plane = TilePlane.allocate(tiled.grid, app.value_dtype)
    plane.owners[...] = 0
    read = np.zeros(want.shape, bool)
    for t in tiled.active_tiles():
        read[tiled.halo_of(*t)] = True
    plane.values[...] = np.where(read, want, -77)
    plane.finished[...] = 1
    return plane, want


class TestLevelBatch:
    ANTIDIAG = ["banded", "edit_distance", "lcs", "lps", "nw", "sw"]
    ROW_SCAN = ["mtp", "unbounded_knapsack", "strided_gain"]
    ELEMENTWISE = ["knapsack", "common_substring"]

    @pytest.mark.parametrize("name", ANTIDIAG + ROW_SCAN + ELEMENTWISE)
    def test_batch_is_bit_identical_to_solo_and_no_more_general(self, name):
        from collections import Counter

        from repro.core.plane import run_tiles, tile_kernel

        app, dag, shape = _batch_instance(name)
        kernel, cls = build_autokernel(app, dag)
        assert cls.klass == (
            "ROW_SCAN_PREFIX" if name in self.ROW_SCAN
            else "ELEMENTWISE" if name in self.ELEMENTWISE
            else "ANTIDIAG_WAVEFRONT"
        )
        tiled = dag.coarsen(*shape)
        kernel = tile_kernel(app, tiled, kernel)
        tiles = tiled.active_tiles()
        np.random.default_rng(3).shuffle(tiles)
        tiles = [tuple(t) for t in tiles]

        # what each tile runs alone — one run_tiles call per tile — and
        # what the batch runs, both counted per (geometry, profile)
        alone, ran = Counter(), Counter()
        real = kernel.fn.sweep

        def spy(profile, leaves, windows, oi, oj, h, w):
            seen[(h, w, profile)] += _stack_size(kernel.fn, windows)
            return real(profile, leaves, windows, oi, oj, h, w)

        kernel.fn.sweep = spy
        seen = alone
        solo, _ = _solved_plane(app, dag, tiled)
        for t in tiles:
            run_tiles(solo, tiled, app, kernel, [t], [0], tiled.halos_of([t]))
        seen = ran
        batch, want = _solved_plane(app, dag, tiled)
        run_tiles(batch, tiled, app, kernel, tiles, [0] * len(tiles), tiled.halos_of(tiles))
        kernel.fn.sweep = real

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

    @pytest.mark.parametrize("name", ANTIDIAG + ROW_SCAN + ELEMENTWISE)
    def test_a_tile_prepares_alike_alone_and_in_a_stack(self, name):
        # one prelude call over a stack of same-shape tiles gives each tile
        # the profile and leaves it gets prepared alone: interior,
        # matrix-edge and clipped tiles alike
        app, dag, shape = _batch_instance(name)
        fn = build_autokernel(app, dag)[0].fn
        tiled = dag.coarsen(*shape)
        stacks = {}
        for t in tiled.active_tiles():
            r0, r1, c0, c1 = tiled.grid.bounds(*t)
            stacks.setdefault((r1 - r0, c1 - c0), []).append((r0, c0))
        kinds = set()
        for (h, w), origins in stacks.items():
            r0s, c0s = (np.array(x) for x in zip(*origins))
            profiles, leaves = fn.prepare(r0s, c0s, h, w)
            assert len(profiles) == len(origins)
            assert all(a is None or len(a) in (1, len(origins)) for a in leaves)
            for k, (r0, c0) in enumerate(origins):
                kinds.add(
                    "clipped" if (h, w) != shape
                    else "edge" if 0 in (r0, c0) else "interior"
                )
                profile, alone = fn.prepare(r0, c0, h, w)
                assert profiles[k] == profile, (name, r0, c0)
                for state, a, b in zip(profile, alone, leaves):
                    if state == "M":  # tile k's slice of the stack's batch array
                        b = b[k if len(b) > 1 else 0]
                        assert np.array_equal(
                            np.broadcast_to(a[0], (h, w)), np.broadcast_to(b, (h, w))
                        ), (name, r0, c0)
        assert kinds == {"interior", "edge", "clipped"}

    def test_one_prelude_per_turn_and_geometry(self, monkeypatch):
        # an inline turn hands every ready tile to one run_tiles call, which
        # evaluates the prelude once per window geometry, not once per tile
        from repro.analysis import flatsweep
        from repro.apps.serial import sw_matrix
        from repro.apps.smith_waterman import SWApp
        from repro.core import plane as plane_mod
        from repro.patterns.diagonal import DiagonalDag

        turns, preludes = [], []
        real_run, real_prepare = plane_mod.run_tiles, flatsweep._SliceKernel.prepare

        def run_tiles(plane, tiled, app, kernel, tiles, *rest):
            turns.append(len(tiles))
            return real_run(plane, tiled, app, kernel, tiles, *rest)

        def prepare(self, r0, c0, h, w):
            preludes.append((len(turns), h, w))
            return real_prepare(self, r0, c0, h, w)

        monkeypatch.setattr(plane_mod, "run_tiles", run_tiles)
        monkeypatch.setattr(flatsweep._SliceKernel, "prepare", prepare)
        rng = np.random.default_rng(7)
        x, y = ("".join(rng.choice(list("ACGT"), 200)) for _ in range(2))
        dag = DiagonalDag(201, 201)
        report = DPX10Runtime(
            SWApp(x, y), dag, DPX10Config(tile_shape=(32, 32), nplaces=2)
        ).run()
        assert report.kernel == "ANTIDIAG_WAVEFRONT"
        # a turn's tiles come in at most two shapes here (full, and the
        # clipped last row or column), each its own window geometry
        assert len(preludes) == len(set(preludes)) <= 2 * len(turns)
        assert len(preludes) < sum(turns) / 2
        assert dag.to_array(fill=-1, dtype=np.int64).tolist() == sw_matrix(x, y).tolist()

    def test_scalar_leaf_values_split_groups(self):
        # a dependency-free scalar that varies from tile to tile is part
        # of the profile: such tiles must not share one sweep
        from repro.core.plane import run_tiles, tile_kernel

        app, dag, _shape = _batch_instance("sw")
        kernel, _ = build_autokernel(app, dag)
        tiled = dag.coarsen(4, 4)
        kernel = tile_kernel(app, tiled, kernel)
        fn = kernel.fn
        sizes = []
        real_sweep, real_leaves = fn.sweep, fn._leaves_fn
        fn.sweep = lambda profile, leaves, windows, *geo: (
            sizes.append(_stack_size(fn, windows)),
            real_sweep(profile, leaves, windows, *geo),
        )
        pair = [(1, 2), (2, 1)]  # two interior tiles of one level
        plane, _ = _solved_plane(app, dag, tiled)
        run_tiles(plane, tiled, app, kernel, pair, [0] * len(pair), tiled.halos_of(pair))
        assert sizes == [2]

        scalar = next(
            i for i, s in enumerate(fn.prepare(4, 4, 4, 4)[0]) if not isinstance(s, str)
        )

        def gap_by_tile_row(r0, c0, h, w):
            # batched: r0 / c0 hold every tile's origin, and a value that
            # is constant over each tile has both tile axes 1
            leaves = list(real_leaves(r0, c0, h, w))
            leaves[scalar] = leaves[scalar] - np.reshape(r0, (-1, 1, 1))
            return tuple(leaves)

        fn._leaves_fn = gap_by_tile_row
        del sizes[:]
        batch, _ = _solved_plane(app, dag, tiled)
        run_tiles(batch, tiled, app, kernel, pair, [0] * len(pair), tiled.halos_of(pair))
        assert sizes == [1, 1]
        solo, _ = _solved_plane(app, dag, tiled)
        for t in pair:
            run_tiles(solo, tiled, app, kernel, [t], [0], tiled.halos_of([t]))
        assert np.array_equal(batch.values, solo.values)


class _FactorDag(StencilDag):
    offsets = ((-1, 0), (0, -1), (-1, -1))


class _FactorApp(DPX10App):
    """The data the factoring fixtures below share: per-row and per-column
    weights and two gaps, all int or all float."""

    value_dtype = np.int64

    def __init__(self, floats: bool):
        rng = np.random.default_rng(17)
        if floats:
            self.x, self.y = rng.normal(size=11), rng.normal(size=10)
            self.g, self.h = -0.37, -1.3
        else:
            self.x, self.y = rng.integers(-3, 4, size=11), rng.integers(-3, 4, size=10)
            self.g, self.h = -1, -2


class _SharedGapApp(_FactorApp):
    """max(up + g, left + g, diag + s): the shared gap factors out."""

    def compute(self, i, j, vertices):
        if i == 0 or j == 0:
            return i + j
        dep = dependency_map(vertices)
        return max(dep[(i - 1, j)] + self.g, dep[(i, j - 1)] + self.g,
                   dep[(i - 1, j - 1)] + self.x[i - 1] * self.y[j - 1])


class _SharedSubtractApp(_FactorApp):
    """min(up - g, left - g, diag + x): a subtracted gap factors out of a min."""

    def compute(self, i, j, vertices):
        if i == 0 or j == 0:
            return i - j
        dep = dependency_map(vertices)
        return min(dep[(i - 1, j)] - self.g, dep[(i, j - 1)] - self.g,
                   dep[(i - 1, j - 1)] + self.x[i - 1])


class _OtherGapApp(_FactorApp):
    """max(up + g, left + h, diag + s): different added leaves stay put."""

    def compute(self, i, j, vertices):
        if i == 0 or j == 0:
            return i + j
        dep = dependency_map(vertices)
        return max(dep[(i - 1, j)] + self.g, dep[(i, j - 1)] + self.h,
                   dep[(i - 1, j - 1)] + self.x[i - 1] * self.y[j - 1])


class _DepAddApp(_FactorApp):
    """max(up + diag, left + diag): a dependency-valued add stays put."""

    def compute(self, i, j, vertices):
        if i == 0 or j == 0:
            return i + j
        dep = dependency_map(vertices)
        return max(dep[(i - 1, j)] + dep[(i - 1, j - 1)], dep[(i, j - 1)] + dep[(i - 1, j - 1)])


class _WhereAfterApp(_FactorApp):
    """A data-dependent case overrides the factored max with ``np.where``
    after it, so that max cannot store in place."""

    def compute(self, i, j, vertices):
        if i == 0 or j == 0:
            return i + j
        dep = dependency_map(vertices)
        if self.x[i - 1] > self.y[j - 1]:
            return dep[(i - 1, j - 1)] + self.x[i - 1]
        return max(dep[(i - 1, j)] + self.g, dep[(i, j - 1)] + self.g)


class TestFactoring:
    """``max(x + g, y + g)`` -> ``max(x, y) + g`` in the sweep body, and the
    lone case's last ufunc storing with ``out=``: which arguments factor,
    read off the interior variant, and every variant bit-identical to the
    per-cell loop."""

    #: fixture -> (factors, stores in place)
    CASES = {
        _SharedGapApp: (True, True),
        _SharedSubtractApp: (True, True),
        _OtherGapApp: (False, True),
        _DepAddApp: (False, True),
        _WhereAfterApp: (True, False),
    }
    FACTORED = re.compile(r"np\.(maximum|minimum)\(_x\d+, _x\d+\) [+-] _L\d+\)")

    @staticmethod
    def _app(cls, floats):
        typed = type(cls.__name__, (cls,), {"value_dtype": np.float64 if floats else np.int64})
        return typed(floats)

    @pytest.mark.parametrize("floats", [False, True], ids=["int64", "float64"])
    @pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
    def test_which_arguments_factor(self, cls, floats):
        factors, in_place = self.CASES[cls]
        kernel, klass = build_autokernel(self._app(cls, floats), _FactorDag(12, 11))
        assert klass.klass == "ANTIDIAG_WAVEFRONT"
        general, interior = kernel.fn.dump_source(64).split("# interior variant")
        assert bool(self.FACTORED.search(interior)) == factors, interior
        assert ("out=B2[_vd, _a:_b]" in interior) == in_place, interior
        assert "out=" not in general  # the masked variant ends in a where-chain

    @pytest.mark.parametrize("shape", [(4, 3), (11, 10), (5, 5)])
    @pytest.mark.parametrize("floats", [False, True], ids=["int64", "float64"])
    @pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
    def test_bit_identical_to_the_per_cell_loop(self, cls, floats, shape):
        dtype = np.float64 if floats else np.int64
        out = []
        for cfg in (dict(tile_shape=(1, 1)), dict(tile_shape=shape, nplaces=2)):
            dag = _FactorDag(12, 11)
            report = DPX10Runtime(self._app(cls, floats), dag, DPX10Config(**cfg)).run()
            out.append(dag.to_array(fill=-1, dtype=dtype))
        assert report.kernel == "ANTIDIAG_WAVEFRONT"
        assert out[0].dtype == out[1].dtype == dtype
        assert np.array_equal(out[0], out[1])


class _WideDag(StencilDag):
    """Declares reads two cells up and left; the app below reads one."""

    offsets = ((-1, 0), (0, -1), (-2, 0), (0, -2))


class _NearApp(DPX10App):
    value_dtype = np.int64

    def __init__(self):
        self.x = np.random.default_rng(3).integers(-2, 5, 17)

    def compute(self, i, j, vertices):
        if i == 0 or j == 0:
            return i + 2 * j
        dep = dependency_map(vertices)
        return max(dep[(i - 1, j)], dep[(i, j - 1)]) + int(self.x[(i * 7 + j) % 17])


class _WideBaseApp(_NearApp):
    """A base case two rows and columns wide: the leading tiles peel as
    many rows and columns as the declared stencil pads the window."""

    def compute(self, i, j, vertices):
        if i <= 1 or j <= 1:
            return 3 * i - j
        dep = dependency_map(vertices)
        return max(dep[(i - 1, j)], dep[(i, j - 1)]) + int(self.x[(i * 7 + j) % 17])


class TestLayout:
    def test_a_window_wider_than_the_footprint_spills(self, monkeypatch):
        # the declared stencil pads the window by two, the inferred
        # footprint by one: the extra halo row and column land in the skew
        # buffer's spill row, which no sweep reads
        from repro.analysis import flatsweep

        kernel, cls = build_autokernel(_NearApp(), _WideDag(19, 17))
        assert cls.klass == "ANTIDIAG_WAVEFRONT" and kernel.pads == (1, 0, 1, 0)
        assert _WideDag(19, 17).coarsen(4, 4).pads == (2, 0, 2, 0)
        spilled = []
        real = flatsweep._SweepPlan.window_slots

        def spy(self, *geo):
            got = real(self, *geo)
            spilled.append(bool((got == self.nslots).any()))
            return got

        monkeypatch.setattr(flatsweep._SweepPlan, "window_slots", spy)
        out = []
        for cfg in (dict(tile_shape=(1, 1)), dict(tile_shape=(4, 4), nplaces=2),
                    dict(tile_shape=(5, 3))):
            dag = _WideDag(19, 17)
            report = DPX10Runtime(_NearApp(), dag, DPX10Config(**cfg)).run()
            out.append(dag.to_array(fill=-1, dtype=np.int64))
        assert report.kernel == "ANTIDIAG_WAVEFRONT" and any(spilled)
        assert all(np.array_equal(out[0], o) for o in out[1:])

    @pytest.mark.parametrize("engine", ["inline", "mp"])
    def test_cells_peeled_past_the_footprint_keep_their_values(self, engine):
        # the boundary is as wide as the window's pads, wider than the
        # footprint: every peeled cell must reach the plane with its own value
        kernel, _ = build_autokernel(_WideBaseApp(), _WideDag(19, 17))
        assert kernel.pads == (1, 0, 1, 0)
        out = []
        for cfg in (dict(tile_shape=(1, 1)), dict(tile_shape=(4, 4), nplaces=2, engine=engine),
                    dict(tile_shape=(6, 5), engine=engine)):
            dag = _WideDag(19, 17)
            report = DPX10Runtime(_WideBaseApp(), dag, DPX10Config(**cfg)).run()
            out.append(dag.to_array(fill=-1, dtype=np.int64))
        assert report.kernel == "ANTIDIAG_WAVEFRONT"
        assert all(np.array_equal(out[0], o) for o in out[1:])


class TestPlanCache:
    def test_plan_cache_is_bounded_and_eviction_keeps_results(self):
        # a pooled place meets a new ragged edge shape per job size; the
        # skew-plan cache must not keep them all
        from repro.analysis import flatsweep

        app, dag, _shape = _batch_instance("sw")
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


class TestNoReferenceCycles:
    """A job's build leaves no cyclic garbage: every generated kernel's
    globals hold the app's arrays and dag, so a cycle through them would
    keep each job's data alive until a full collection."""

    @pytest.mark.parametrize("engine", ["inline", "mp"])
    @pytest.mark.parametrize("name", ["sw", "lcs", "edit_distance", "mtp"])
    def test_a_warm_job_leaves_no_cycles(self, name, engine):
        import gc
        import weakref

        def job():
            app, dag = app_fixture(name)
            DPX10Runtime(app, dag, DPX10Config(engine=engine, nplaces=2)).run()
            return weakref.ref(app)

        job()  # warm: lazy imports and the memoized source facts
        gc.collect()
        gc.disable()
        try:
            app = job()
            assert app() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
