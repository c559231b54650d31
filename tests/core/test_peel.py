"""Edge-tile peeling (``FlatSweepKernel.peel`` and ``plane.run_tiles``).

A tile on the matrix's top row or left column takes its initial-condition
cells straight from the prelude and sweeps the rest as the tile's
rectangle shifted past them — interior geometry, interior profile — or,
where a dependency reaches past the shift or the matrix ends first, as
the remainder alone. Every case here is compared bit for bit against the
per-vertex reference (``tile_shape=(1, 1)``) and a serial oracle, on
every engine and both mp backings.
"""

import numpy as np
import pytest

import repro.patterns  # noqa: F401 - registers the built-in patterns
from repro.analysis.flatsweep import FlatSweepKernel
from repro.apps import serial
from repro.apps.banded_alignment import BandedEditDistanceApp
from repro.apps.edit_distance import EditDistanceApp
from repro.apps.knapsack import KnapsackApp, make_knapsack_instance
from repro.apps.lcs import LCSApp
from repro.apps.lps import LPSApp
from repro.apps.mtp import MTPApp, make_mtp_weights
from repro.apps.needleman_wunsch import NWApp
from repro.apps.smith_waterman import SWApp
from repro.core import plane as plane_mod
from repro.core.api import DPX10App, Vertex, dependency_map
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.shm import shm_supported
from repro.patterns import BandedDiagonalDag, DiagonalDag, GridDag, IntervalDag
from repro.patterns.base import StencilDag
from repro.patterns.knapsack import KnapsackDag


class EdgeReadApp(DPX10App[int]):
    """Both edge cases read a dependency: nothing may peel."""

    value_dtype = np.int64

    def __init__(self, x, y):
        self.x, self.y = x, y

    def compute(self, i, j, vertices):
        dep = dependency_map(vertices)
        if i == 0:
            return dep.get((i, j - 1), 0) + 1
        if j == 0:
            return dep.get((i - 1, j), 0) + 2
        match = 3 if self.x[i - 1] == self.y[j - 1] else 1
        return max(dep[(i - 1, j)], dep[(i, j - 1)]) + match


class LookaheadDag(StencilDag):
    """Reads the row below too: pads (1, 1, 5, 0), so no down-shift. The
    read lands five columns left, past a tile of width <= 5, so tile rows
    do not depend on each other both ways."""

    offsets = ((-1, 0), (0, -1), (1, -5))


class LookaheadApp(DPX10App[int]):
    """A dependency-free edge five columns wide, under a positive row offset."""

    value_dtype = np.int64

    def __init__(self, x, y):
        self.x, self.y = x, y

    def compute(self, i, j, vertices):
        if i == 0 or j < 5:
            return i + 2 * j
        dep = dependency_map(vertices)
        match = 3 if self.x[i - 1] == self.y[j - 1] else 1
        return max(dep[(i - 1, j)], dep[(i, j - 1)], dep.get((i + 1, j - 5), 0)) + match


def _serial(app, dag):
    """Every active cell's ``compute()`` in antidiagonal order."""
    out = np.full((dag.height, dag.width), -1, np.int64)
    cells = [
        (i, j) for i in range(dag.height) for j in range(dag.width) if dag.is_active(i, j)
    ]
    for i, j in sorted(cells, key=sum):
        deps = [
            Vertex(d.i, d.j, int(out[d.i, d.j]))
            for d in dag.get_dependency(i, j)
            if dag.is_active(d.i, d.j)
        ]
        out[i, j] = app.compute(i, j, deps)
    return out


ANTIDIAG = ["banded", "edit_distance", "lcs", "lps", "nw", "sw"]
FIXTURES = ["edge_read", "lookahead"]


def _instance(name):
    """``(app, dag factory, serial oracle)`` on a 21 x 17 matrix (LPS 20 x 20)."""
    rng = np.random.default_rng(11)
    x = "".join(rng.choice(list("ACGT"), 20))
    y = "".join(rng.choice(list("ACGT"), 16))
    H, W = len(x) + 1, len(y) + 1
    if name == "lps":
        return LPSApp(x), lambda: IntervalDag(len(x), len(x)), serial.lps_matrix(x)
    if name == "banded":
        app, make = BandedEditDistanceApp(x, y), lambda: BandedDiagonalDag(H, W, 5)
    elif name == "edge_read":
        app, make = EdgeReadApp(x, y), lambda: DiagonalDag(H, W)
    elif name == "lookahead":
        app, make = LookaheadApp(x, y), lambda: LookaheadDag(H, W)
    else:
        app = {"edit_distance": EditDistanceApp, "lcs": LCSApp, "nw": NWApp, "sw": SWApp}[
            name
        ](x, y)
        oracle = {
            "edit_distance": serial.edit_distance_matrix,
            "lcs": serial.lcs_matrix,
            "nw": serial.nw_matrix,
            "sw": serial.sw_matrix,
        }[name](x, y)
        return app, lambda: DiagonalDag(H, W), oracle
    return app, make, _serial(app, make())


#: tile shapes, as functions of the matrix (21 x 17; LPS 20 x 20): ones
#: whose first tile row and / or column leads by the boundary's one spare
#: cell, one that shifts, ragged last tiles, and the fallbacks — one tile
#: row, one tile column, one tile
SHAPES = {
    "4x4": lambda H, W: (4, 4),  # 21 = 1 + 5 * 4 and 17 = 1 + 4 * 4 lead
    "4x3": lambda H, W: (4, 3),  # rows lead; 17 = 5 * 3 + 2 trails
    "3x4": lambda H, W: (3, 4),  # 21 = 7 * 3 shifts; columns lead
    "20x5": lambda H, W: (H - 1, 5),  # H = th + 1: one tall tile row
    "5x3": lambda H, W: (5, 3),
    "one-row": lambda H, W: (H, 4),
    "one-col": lambda H, W: (4, W),
    "single": lambda H, W: (H, W),
}

ENGINES = {
    "inline": dict(engine="inline"),
    "threaded": dict(engine="threaded"),
    "mp-shm": dict(engine="mp", shm=True),
    "mp-pipe": dict(engine="mp", shm=False),
}


def _solve(app, dag, **cfg):
    report = DPX10Runtime(app, dag, DPX10Config(**cfg)).run()
    return dag.to_array(fill=-1, dtype=np.int64), report


#: a one-column tiling puts a row-below read in the tile below: cyclic
CASES = [
    (name, shape)
    for name in ANTIDIAG + FIXTURES
    for shape in SHAPES
    if (name, shape) != ("lookahead", "one-col")
]


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("name, shape", CASES)
def test_peeled_tiles_are_bit_identical(name, shape, engine, monkeypatch):
    if ENGINES[engine].get("shm") and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    app, make, oracle = _instance(name)
    peels, heights = [], set()
    real_peel, real_sweep = FlatSweepKernel.peel, FlatSweepKernel.sweep

    def peel(self, *args):
        got = real_peel(self, *args)
        peels.append(got is not None)
        return got

    def sweep(self, profile, leaves, windows, oi, oj, h, w):
        heights.add(h)
        return real_sweep(self, profile, leaves, windows, oi, oj, h, w)

    monkeypatch.setattr(FlatSweepKernel, "peel", peel)
    monkeypatch.setattr(FlatSweepKernel, "sweep", sweep)
    ref, _ = _solve(app, make(), tile_shape=(1, 1))
    dag = make()
    tile_shape = SHAPES[shape](dag.height, dag.width)
    got, report = _solve(app, dag, tile_shape=tile_shape, nplaces=2, **ENGINES[engine])
    assert report.kernel == "ANTIDIAG_WAVEFRONT"
    assert got.tolist() == ref.tolist()
    active = ref != -1
    assert got[active].tolist() == oracle[active].tolist()
    if engine in ("inline", "threaded"):  # mp places peel in their own processes
        assert any(peels) == (name not in ("lps", "edge_read")), peels
        if shape == "4x4":
            # 21 = 1 + 5 * 4: the boundary row joins tile row 0, whose
            # peeled tiles sweep exactly the interior 4 rows, even where a
            # row-below read forbids shifting down
            assert 3 not in heights, heights
        if shape == "3x4" and name != "lps":
            # 21 = 7 * 3 rows, no remainder: a row-0 tile shifts down,
            # except one that may not (lookahead), which sweeps its 2-row
            # remainder alone
            assert (2 in heights) == (name == "lookahead"), heights


def test_edge_tiles_join_the_interior_sweep(monkeypatch):
    # SW 1024^2 at 64^2 on 2 inline places: the 31 top-row / left-column
    # tiles, 65 cells tall or wide, peel, so no sweep runs a boolean mask,
    # and the solve needs one sweep per tile antidiagonal (31), not the
    # 107 that one masked sweep per edge tile cost
    sweeps = []
    real = FlatSweepKernel.sweep

    def spy(self, profile, leaves, windows, *geo):
        masked = [k for k, s in enumerate(profile) if s == "M"]
        sweeps.append(any(leaves[k].dtype == np.bool_ for k in masked))
        return real(self, profile, leaves, windows, *geo)

    monkeypatch.setattr(FlatSweepKernel, "sweep", spy)
    rng = np.random.default_rng(7)
    x, y = ("".join(rng.choice(list("ACGT"), 1024)) for _ in range(2))
    dag = DiagonalDag(1025, 1025)
    report = DPX10Runtime(
        SWApp(x, y), dag, DPX10Config(tile_shape=(64, 64), nplaces=2)
    ).run()
    assert report.kernel == "ANTIDIAG_WAVEFRONT"
    assert not any(sweeps)
    assert len(sweeps) == 31


@pytest.mark.parametrize("scheduler", ["local", "random"])
@pytest.mark.parametrize("nplaces", [1, 2, 4])
@pytest.mark.parametrize("name", ANTIDIAG + ["mtp", "knapsack"])
def test_merged_inline_batches_are_bit_identical(name, nplaces, scheduler, monkeypatch):
    # an inline turn hands every place's ready tiles to one run_tiles
    # call: peeled and unpeeled, flat-sweep and row kernels, tiles of
    # several homes and execution places share sweeps
    if name == "mtp":
        app, make = MTPApp(*make_mtp_weights(21, 17, seed=5)), lambda: GridDag(21, 17)
    elif name == "knapsack":
        weights, values = make_knapsack_instance(20, 16, seed=3)
        app, make = KnapsackApp(weights, values, 16), lambda: KnapsackDag(weights, 16)
    else:
        app, make, _oracle = _instance(name)
    mixes = []  # the execution places of each run_tiles call
    real = plane_mod.run_tiles

    def spy(plane, tiled, app, kernel, tiles, places, *rest):
        mixes.append(set(places))
        return real(plane, tiled, app, kernel, tiles, places, *rest)

    ref, _ = _solve(app, make(), tile_shape=(1, 1))
    monkeypatch.setattr(plane_mod, "run_tiles", spy)
    got, report = _solve(
        app, make(), tile_shape=(4, 4), nplaces=nplaces, scheduler=scheduler
    )
    assert report.kernel is not None
    assert got.tolist() == ref.tolist()
    assert (max(map(len, mixes)) > 1) == (nplaces > 1)



@pytest.mark.parametrize("engine", list(ENGINES))
def test_per_vertex_spelling_is_bit_identical_on_every_engine(engine):
    # (1, 1) has no remainder to lead: in process the per-vertex path, on
    # mp a grid of 1x1 tiles; both land on the serial oracle
    if ENGINES[engine].get("shm") and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    app, make, oracle = _instance("sw")
    got, report = _solve(app, make(), tile_shape=(1, 1), nplaces=2, **ENGINES[engine])
    assert report.tile_shape is None and report.kernel is None
    assert got.tolist() == oracle.tolist()


class CornerDag(DiagonalDag):
    """The SW stencil with its far corner inactive: an active cell reads
    only cells nearer the origin, so every read stays active."""

    def __init__(self, height, width, cut):
        self.cut = cut
        super().__init__(height, width)

    def is_active(self, i, j):
        return i + j <= self.cut

    def is_active_array(self, rows, cols):
        return np.asarray(rows) + np.asarray(cols) <= self.cut


def _kinds(tiled, tiles):
    """What each tile of a batch is, by its geometry in the grid."""
    grid, kinds = tiled.grid, set()
    for t in tiles:
        r0, r1, c0, c1 = grid.bounds(*t)
        h, w = r1 - r0, c1 - c0
        if r0 == 0 and h == grid.tile_h + 1:
            kinds.add("leading")  # the boundary row joined tile row 0
        if c0 == 0 and w == grid.tile_w and c1 < grid.width:
            kinds.add("shifted")  # no spare column: column 0 shifts right
        if h < grid.tile_h or w < grid.tile_w:
            kinds.add("ragged")
        if 0 < tiled.tile_cells[t] < h * w:
            kinds.add("partly")
    return kinds


#: (app, dag factory, serial oracle, the kinds one batch must mix): SW at
#: 17 x 14, rows leading (17 = 1 + 4 * 4), columns shifting with a 2-wide
#: ragged last one (14 = 3 * 4 + 2), the corner past i + j = 18 inactive;
#: LPS (rank -1, pads (0, 1, 1, 0)) at 14 x 14, on its triangle
MIXED = {
    "sw": lambda x, y: (SWApp(x, y), lambda: CornerDag(17, 14, 18), serial.sw_matrix(x, y),
                        {"leading", "shifted", "ragged", "partly"}),
    "lps": lambda x, y: (LPSApp(x[:14]), lambda: IntervalDag(14, 14), serial.lps_matrix(x[:14]),
                         {"ragged", "partly"}),
}


@pytest.mark.parametrize("engine", ["inline", "mp-shm"])
@pytest.mark.parametrize("name", list(MIXED))
def test_one_batch_mixes_every_tile_kind(name, engine, monkeypatch):
    # a level's run_tiles call holds peeled leading tiles, shifted
    # rectangles, ragged edge tiles and partly active tiles at once: each
    # scatters its halo (and strips) into its stack's slots and writes its
    # cells back from them, bit for bit the per-vertex reference
    if engine == "mp-shm" and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    rng = np.random.default_rng(5)
    x, y = ("".join(rng.choice(list("ACGT"), n)) for n in (16, 13))
    app, make, oracle, kinds = MIXED[name](x, y)
    batches = []
    real = plane_mod.run_tiles

    def spy(plane, tiled, app, kernel, tiles, places, *rest):
        batches.append(_kinds(tiled, tiles))
        return real(plane, tiled, app, kernel, tiles, places, *rest)

    ref, _ = _solve(app, make(), tile_shape=(1, 1))
    monkeypatch.setattr(plane_mod, "run_tiles", spy)
    cfg = dict(engine="inline") if engine == "inline" else dict(engine="mp", shm=True, nplaces=2)
    got, report = _solve(app, make(), tile_shape=(4, 4), **cfg)
    assert report.kernel == "ANTIDIAG_WAVEFRONT"
    assert got.tolist() == ref.tolist()
    active = ref != -1
    assert got[active].tolist() == oracle[active].tolist()
    assert (~active).any()  # partly active: some cells never run
    if engine == "inline":  # mp places run their batches in their own processes
        assert any(kinds <= seen for seen in batches), batches
