"""Tests for the one tile data plane (repro.core.plane).

The law the surviving tile path is held to: for every registered
pattern, engine and value kind, with and without a place death, a tiled
run leaves exactly the matrix the per-vertex run leaves — and every
engine gets there through the same executor, with the same transfer
accounting.
"""

import os
from collections import Counter

import numpy as np
import pytest

import repro.patterns  # noqa: F401 - registers the built-in patterns
from repro.apgas.failure import FaultPlan
from repro.core import plane as plane_mod
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.plane import PlaneResults, TilePlane
from repro.core.runtime import DPX10Runtime
from repro.core.shm import leaked_segments, shm_supported
from repro.core.tiling import TileGrid
from repro.dist.dist import Dist
from repro.dist.region import Region2D
from repro.errors import PatternError
from repro.patterns.base import PATTERNS
from repro.patterns.diagonal import DiagonalDag
from tests.core.test_tiling import MixApp, make_dag

SIZE = 13  # make_dag's default matrix edge
NPLACES = 3


class Int32App(MixApp):
    """MixApp on a 4-byte plane (its values stay below 100003)."""

    value_dtype = np.int32


class PairApp(DPX10App[tuple]):
    """The same recurrence carried in an object-valued ``(acc, depth)`` pair."""

    def compute(self, i, j, vertices):
        acc, depth = i * 31 + j * 7, 0
        for v in vertices:
            a, d = v.get_result()
            acc = (acc * 13 + a) % 100003
            depth = max(depth, d + 1)
        return (acc, depth)


def tile_shape_for(name):
    """A non-trivial tile shape the pattern coarsens acyclically under."""
    for shape in ((4, 4), (4, SIZE), (SIZE, SIZE)):
        try:
            make_dag(name).coarsen(*shape)
        except PatternError:
            continue
        return shape
    raise AssertionError(f"no tile shape accepted for {name}")


def run_plane(name, app, fault_plans=(), **cfg):
    """Run ``app`` over pattern ``name``; the result matrix as nested lists.

    Without a ``tile_shape`` this is the per-vertex reference leg.
    """
    dag = make_dag(name)
    cfg.setdefault("tile_shape", (1, 1))
    config = DPX10Config(nplaces=NPLACES, **cfg)
    report = DPX10Runtime(app, dag, config, fault_plans=list(fault_plans)).run()
    return dag.to_array(fill=None, dtype=object).tolist(), report


# -- (a) tiled == per-vertex, everywhere ---------------------------------------------
ENGINES = {
    "inline": dict(engine="inline"),
    "threaded": dict(engine="threaded"),
    # object values cannot live in a segment: that leg gets private
    # planes whatever ``shm`` says
    "mp-shm": dict(engine="mp", shm=True),
    # a private plane per process, halo and result patches on the pipes
    "mp-pipe": dict(engine="mp", shm=False),
}


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "kill"])
@pytest.mark.parametrize("app_cls", [MixApp, PairApp], ids=["typed", "object"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_tiled_plane_matches_per_vertex(name, engine, app_cls, fault):
    if engine == "mp-shm" and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    want, _ = run_plane(name, app_cls())
    plans = [FaultPlan(1, at_fraction=0.5)] if fault else []
    got, report = run_plane(
        name,
        app_cls(),
        fault_plans=plans,
        tile_shape=tile_shape_for(name),
        **ENGINES[engine],
    )
    assert got == want
    assert report.recoveries == (1 if fault else 0)
    assert leaked_segments() == []


# -- (b) one executor ---------------------------------------------------------------------
def _active_tiles(tiled):
    return {
        (ti, tj)
        for ti in range(tiled.height)
        for tj in range(tiled.width)
        if tiled.is_active(ti, tj)
    }


def _spy_run_tiles(monkeypatch):
    """Record every ``run_tiles`` call as ``(tiles, places, homes, cells)``:
    each tile's execution place and home, in call order."""
    calls = []
    real = plane_mod.run_tiles

    def spying(plane, tiled, app, kernel, tiles, places, *rest):
        homes = [int(plane.owners[t]) for t in tiles]
        done = real(plane, tiled, app, kernel, tiles, places, *rest)
        calls.append((list(tiles), list(places), homes, sum(n for n, _ in done)))
        return done

    monkeypatch.setattr(plane_mod, "run_tiles", spying)
    return calls


def _in_process_tile_calls(engine, shape, monkeypatch):
    """Every ``run_tiles`` call of a tiled diagonal run, checked to cover
    each active tile once and every cell."""
    want, _ = run_plane("diagonal", MixApp())
    calls = _spy_run_tiles(monkeypatch)
    got, report = run_plane("diagonal", MixApp(), engine=engine, tile_shape=shape)
    seen = Counter(tuple(t) for tiles, *_ in calls for t in tiles)
    assert set(seen) == _active_tiles(DiagonalDag(SIZE, SIZE).coarsen(*shape))
    assert set(seen.values()) == {1}
    assert sum(cells for *_, cells in calls) == report.active_vertices
    assert got == want
    return calls


@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_in_process_engines_run_every_tile_through_run_tile(engine, monkeypatch):
    calls = _in_process_tile_calls(engine, (4, 4), monkeypatch)
    # 13 = 1 + 3 * 4: a 3 x 3 tile grid, one tile column per place. An
    # inline turn holds a whole tile antidiagonal; a threaded worker's
    # ready list holds its column's one ready tile
    assert max(len(tiles) for tiles, *_ in calls) == {"inline": 3, "threaded": 1}[engine]


@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_a_place_hands_over_its_whole_ready_list(engine, monkeypatch):
    # 13 = 1 + 4 * 3: a 4 x 4 tile grid, so one place homes two tile
    # columns, and independent tiles of its share a call
    calls = _in_process_tile_calls(engine, (3, 3), monkeypatch)
    assert max(len(tiles) for tiles, *_ in calls) > 1


@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_random_scheduler_batches_run_tiles_away_from_home(engine, monkeypatch):
    want, _ = run_plane("grid", MixApp())
    calls = _spy_run_tiles(monkeypatch)
    got, _ = run_plane(
        "grid", MixApp(), engine=engine, tile_shape=(3, 3), scheduler="random", seed=5
    )
    assert any(
        p != home for _, places, homes, _ in calls for p, home in zip(places, homes)
    )
    assert got == want


def _spy_halos(monkeypatch):
    """Count ``TiledDag.halos_of`` calls, and ``halo_of`` calls made
    anywhere but inside one (where it builds the batch tile by tile)."""
    from repro.core.tiling import TiledDag

    counts = Counter()
    real_halos, real_halo = TiledDag.halos_of, TiledDag.halo_of

    def halos_of(self, tiles):
        counts["halos_of"] += 1
        counts["inside"] += 1
        try:
            return real_halos(self, tiles)
        finally:
            counts["inside"] -= 1

    def halo_of(self, ti, tj):
        counts["halo_of"] += not counts["inside"]
        return real_halo(self, ti, tj)

    monkeypatch.setattr(TiledDag, "halos_of", halos_of)
    monkeypatch.setattr(TiledDag, "halo_of", halo_of)
    return counts


@pytest.mark.parametrize("name", ["sw", "tree_knapsack"])  # window / cells kernel
def test_an_in_process_batch_builds_its_halo_once(name, monkeypatch):
    from repro.analysis.registry import app_fixture

    app, dag = app_fixture(name)
    calls = _spy_run_tiles(monkeypatch)
    counts = _spy_halos(monkeypatch)
    report = DPX10Runtime(app, dag, DPX10Config(nplaces=2, tile_shape=(4, 4))).run()
    assert report.kernel is not None and calls
    assert counts["halos_of"] == len(calls) and counts["halo_of"] == 0


def test_a_place_builds_each_batch_halo_once(monkeypatch):
    from repro.analysis.registry import app_fixture
    from repro.core.mp_engine import _PlaceWorker
    from repro.obs.metrics import MetricsRegistry

    app, dag = app_fixture("sw")
    tiled = dag.coarsen(4, 4)
    meta = dict(tile_shape=(4, 4), planned=True, kernel="hand", sanitize=False,
                value_nbytes=8, spill_dir=None,
                owners=np.zeros((tiled.grid.nti, tiled.grid.ntj), np.int32))
    worker = _PlaceWorker(0, app, dag, meta, MetricsRegistry())
    counts = _spy_halos(monkeypatch)
    levels = tiled.levels()
    for level in levels:
        worker.compute(level, None)
    assert worker.plane.finished.all()
    assert counts["halos_of"] == len(levels) and counts["halo_of"] == 0


def _log_run_tiles(log, monkeypatch):
    """Spy on ``run_tiles`` in forked places: one log line per call,
    ``kernel-type:fn-type ti,tj ti,tj ...`` (an O_APPEND line is their way
    back)."""
    real = plane_mod.run_tiles

    def logging(plane, tiled, app, kernel, tiles, places, *rest):
        with open(log, "a") as fh:
            coords = " ".join(f"{ti},{tj}" for ti, tj in tiles)
            kind = f"{type(kernel).__name__}:{type(getattr(kernel, 'fn', None)).__name__}"
            fh.write(f"{kind} {coords}\n")
        return real(plane, tiled, app, kernel, tiles, places, *rest)

    monkeypatch.setattr(plane_mod, "run_tiles", logging)


def _logged_calls(log):
    calls = []
    for line in log.read_text().splitlines():
        name, *coords = line.split()
        calls.append((name, [tuple(map(int, c.split(","))) for c in coords]))
    return calls


def _mp_tile_calls(shm, b, tmp_path, monkeypatch):
    """The logged ``run_tiles`` calls of a traced mp SW run at 4x4 (a 15-row
    matrix, ``b`` across), checked to cover each active tile once and to
    land on the per-vertex matrix."""
    if shm and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    from repro.apps.smith_waterman import SWApp

    log = tmp_path / "tiles.log"
    _log_run_tiles(log, monkeypatch)
    a = "GATTACAGATTACA"
    dag = DiagonalDag(len(a) + 1, len(b) + 1)
    config = DPX10Config(
        nplaces=NPLACES, engine="mp", shm=shm, tile_shape=(4, 4),
        autokernel=True, trace=True,
    )
    report = DPX10Runtime(SWApp(a, b), dag, config).run()
    calls = _logged_calls(log)
    tiled = DiagonalDag(len(a) + 1, len(b) + 1).coarsen(4, 4)
    assert Counter(t for _, tiles in calls for t in tiles) == Counter(
        _active_tiles(tiled)
    )
    # the generated kernel, on the private-plane backing too
    assert {name for name, _ in calls} == {"AutoKernel:FlatSweepKernel"}
    # worker events are tile-granular on both backings, and the events of
    # one batch partition its span: a place is never in two tiles at once
    events = report.trace.events
    assert sorted(e.tile for e in events) == sorted(_active_tiles(tiled))
    assert all(e.cells == len(tiled.cells_of(*e.tile)[0]) for e in events)
    assert sum(e.cells for e in events) == report.active_vertices
    for p in range(NPLACES):
        mine = sorted((e.start, e.end) for e in events if e.exec_place == p)
        assert all(s0 < e0 <= s1 for (s0, e0), (s1, _) in zip(mine, mine[1:]))
    want = DiagonalDag(len(a) + 1, len(b) + 1)
    DPX10Runtime(SWApp(a, b), want, DPX10Config(tile_shape=(1, 1))).run()
    assert (
        dag.to_array(fill=-1, dtype=np.int64).tolist()
        == want.to_array(fill=-1, dtype=np.int64).tolist()
    )
    return calls


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the spy reaches places by fork")
@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_places_run_every_tile_through_run_tile(shm, tmp_path, monkeypatch):
    calls = _mp_tile_calls(shm, "GCATGCTGCATG", tmp_path, monkeypatch)
    # 13 = 1 + 3 * 4 columns: three tile columns, one per place, so a
    # place's share of a level is one tile
    assert max(len(tiles) for _, tiles in calls) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the spy reaches places by fork")
@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_places_take_their_level_share_in_one_call(shm, tmp_path, monkeypatch):
    # 17 = 1 + 4 * 4 columns: four tile columns over three places, so a
    # place homing two gets its share of a level in one call, not tile by tile
    calls = _mp_tile_calls(shm, "GCATGCTGCATGCATG", tmp_path, monkeypatch)
    assert max(len(tiles) for _, tiles in calls) > 1


def _levels(name="sw", shape=(4, 4)):
    """A tiled SW (flat sweep) or mtp (row scan) instance under its
    generated kernel, level by level, with the per-vertex oracle."""
    from repro.analysis.codegen import build_autokernel

    if name == "mtp":
        from repro.apps.mtp import MTPApp, make_mtp_weights
        from repro.patterns.grid import GridDag

        app, pattern = MTPApp(*make_mtp_weights(25, 21, seed=5)), GridDag
    else:
        from repro.apps.smith_waterman import SWApp

        rng = np.random.default_rng(5)
        app = SWApp(*("".join(rng.choice(list("ACGT"), k)) for k in (24, 20)))
        pattern = DiagonalDag
    want = pattern(25, 21)
    DPX10Runtime(app, want, DPX10Config(tile_shape=(1, 1))).run()
    dag = pattern(25, 21)
    tiled = dag.coarsen(*shape)
    kernel = plane_mod.tile_kernel(app, tiled, build_autokernel(app, dag)[0])
    levels = tiled.levels()
    return app, dag, tiled, kernel, levels, want.to_array(fill=-1, dtype=np.int64)


def _cut_a_level_short(shape, cut, die_at):
    """SW under ``shape``: levels before ``cut`` computed, then level
    ``cut`` stopped in its ``die_at``-th sweep. Whatever stops a place
    inside a level batch (a SIGKILL, on the shm backing, leaves exactly
    this in the shared segments), a tile is either flagged with every
    value in place or not flagged at all. Returns the tiled dag, the
    level, the flags it left, the sweep sizes and how many tiles landed."""
    app, dag, tiled, kernel, levels, want = _levels(shape=shape)
    plane = TilePlane.allocate(tiled.grid, app.value_dtype)
    plane.owners[...] = 0
    for level in levels[:cut]:
        plane_mod.run_tiles(
            plane, tiled, app, kernel, level, [0] * len(level), tiled.halos_of(level)
        )
    calls = []
    real = kernel.fn.sweep

    def dying(*args):
        # the skew buffer carries a stack's tiles as a trailing axis
        calls.append(args[2].shape[2] if args[2].ndim == 3 else 1)
        if len(calls) == die_at:
            raise KeyboardInterrupt("place dies here")
        return real(*args)

    kernel.fn.sweep = dying
    with pytest.raises(KeyboardInterrupt):
        plane_mod.run_tiles(
            plane, tiled, app, kernel, levels[cut], [0] * len(levels[cut]),
            tiled.halos_of(levels[cut]),
        )
    kernel.fn.sweep = real
    flagged = 0
    for t in levels[cut]:
        rows, cols = tiled.cells_of(*t)
        flags = plane.finished[rows, cols]
        assert flags.all() or not flags.any()
        if flags.all():
            flagged += 1
            assert plane.values[rows, cols].tolist() == want[rows, cols].tolist()
    left = plane.finished.astype(bool)
    # the recompute of the whole level lands on the oracle
    for level in levels[cut:]:
        plane_mod.run_tiles(
            plane, tiled, app, kernel, level, [0] * len(level), tiled.halos_of(level)
        )
    assert plane.values.tolist() == want.tolist() and plane.finished.all()
    return tiled, levels[cut], left, calls, flagged


def test_a_batch_cut_short_leaves_no_flag_without_its_values():
    # 25 x 21 at 4x4: the spare boundary row and column join the first
    # tile row and column, so every tile of a level, peeled or not,
    # shares one sweep, and dying in it flags none of them
    _tiled, level, _left, calls, flagged = _cut_a_level_short((4, 4), cut=5, die_at=1)
    assert calls == [len(level)] and flagged == 0
    # at 4x6 the 21 columns trail a 3-wide tile column: interior tiles +
    # the peeled col-0 tile, then that column's peeled row-0 tile, two
    # sweeps, each holding a tile with peeled cells
    tiled, level, left, calls, flagged = _cut_a_level_short((4, 6), cut=3, die_at=2)
    peeled = {(3, 0): (slice(None), slice(0, 1)), (0, 3): (slice(0, 1), slice(None))}
    assert set(peeled) <= set(level) and calls == [3, 1]
    assert 0 < flagged < len(level)
    # a peeled strip is flagged exactly when the rest of its tile is
    states = set()
    for (ti, tj), (si, sj) in peeled.items():
        r0, r1, c0, c1 = tiled.grid.bounds(ti, tj)
        tile = left[r0:r1, c0:c1]
        in_strip = np.zeros(tile.shape, bool)
        in_strip[si, sj] = True
        strip, rest = set(tile[in_strip].tolist()), set(tile[~in_strip].tolist())
        assert len(strip) == 1 and strip == rest
        states |= strip
    assert states == {True, False}


def _kill_inside_the_widest_level(name, **cfg):
    if cfg.get("shm") and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    app, dag, tiled, _kernel, levels, want = _levels(name)
    # a completion count strictly inside the widest level: the victim
    # dies holding a batch of several tiles' worth of results
    cells = [sum(len(tiled.cells_of(*t)[0]) for t in lv) for lv in levels]
    widest = max(range(len(levels)), key=lambda k: len(levels[k]))
    assert len(levels[widest]) >= 4
    threshold = sum(cells[:widest]) + cells[widest] // 2
    config = DPX10Config(nplaces=2, tile_shape=(4, 4), **cfg)
    report = DPX10Runtime(
        app, dag, config, fault_plans=[FaultPlan(1, after_completions=threshold)]
    ).run()
    assert report.recoveries == 1
    assert dag.to_array(fill=-1, dtype=np.int64).tolist() == want.tolist()
    assert leaked_segments() == []
    return tiled, want


@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_kill_inside_a_level_batch_recovers_bit_identically(shm):
    _kill_inside_the_widest_level("sw", engine="mp", shm=shm)


@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_kill_rehoming_a_leading_tile_zeroes_its_whole_rectangle(shm, monkeypatch):
    # SW 25 x 21 at 4x4: the boundary row joins tile row 0, so a lost
    # row-0 tile is 5 rows tall, and all 5 reset on the master's plane
    losses = []
    real = TilePlane.lose

    def spying(self, dead, dist=None, rehome=None):
        # the lost tiles: every tile the dead places owned
        lost = [tuple(t) for t in np.argwhere(np.isin(self.owners, list(dead))).tolist()]
        before = self.finished.astype(bool)
        real(self, dead, dist, rehome)
        losses.append((self.grid, lost, before, self.finished.astype(bool), self.values.copy()))

    monkeypatch.setattr(TilePlane, "lose", spying)
    _kill_inside_the_widest_level("sw", engine="mp", shm=shm)
    ((grid, lost, before, after, values),) = losses
    zeroed = np.zeros(before.shape, bool)
    for t in lost:
        r0, r1, c0, c1 = grid.bounds(*t)
        zeroed[r0:r1, c0:c1] = True
    assert not after[zeroed].any() and not values[zeroed].any()
    assert after[~zeroed].tolist() == before[~zeroed].tolist()
    leads = [grid.bounds(*t) for t in lost if t[0] == 0]
    assert all((r0, r1) == (0, grid.tile_h + 1) for r0, r1, _, _ in leads)
    assert any(before[r0:r1, c0:c1].all() for r0, r1, c0, c1 in leads)


@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_kill_inside_a_row_scan_level_batch_recovers_bit_identically(shm):
    _kill_inside_the_widest_level("mtp", engine="mp", shm=shm)


@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_in_process_kill_inside_a_ready_list_batch_recovers_bit_identically(
    engine, monkeypatch
):
    # inside the widest level the kill lands between two tiles of one
    # run_tiles call (on inline the call holds the whole level); the call's
    # later tiles are computed and flagged, and must survive as values
    import repro.core.runtime as runtime_mod

    planes = []
    real = runtime_mod.recover_tiled

    def recording(state):
        stats = real(state)
        planes.append((state.plane.finished.astype(bool), np.array(state.plane.values)))
        return stats

    monkeypatch.setattr(runtime_mod, "recover_tiled", recording)
    tiled, want = _kill_inside_the_widest_level("sw", engine=engine)
    ((finished, values),) = planes
    assert 0 < finished.sum() < finished.size
    assert values[finished].tolist() == want[finished].tolist()
    for t in tiled.active_tiles():
        flags = finished[tiled.cells_of(*t)]
        assert flags.all() or not flags.any(), t


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the spy reaches places by fork")
@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_places_sweep_mtp_with_the_row_scan_kernel(shm, tmp_path, monkeypatch):
    # a place rebuilds its kernel from the shipped spec, and one that
    # failed to would compute interpreted: correct, and silently slow
    if shm and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    log = tmp_path / "tiles.log"
    _log_run_tiles(log, monkeypatch)
    app, dag, _tiled, _kernel, _lv, want = _levels("mtp")
    config = DPX10Config(
        nplaces=NPLACES, engine="mp", shm=shm, tile_shape=(4, 4), autokernel=True
    )
    report = DPX10Runtime(app, dag, config).run()
    calls = _logged_calls(log)
    assert {name for name, _ in calls} == {"AutoKernel:RowScanKernel"}
    assert max(len(tiles) for _, tiles in calls) > 1
    assert report.kernel == "ROW_SCAN_PREFIX"
    assert dag.to_array(fill=-1, dtype=np.int64).tolist() == want.tolist()


def test_tiled_in_process_runs_build_no_vertex_stores(monkeypatch):
    # one plane per run, recoveries included: the per-vertex reference
    # and a tiled run alike allocate exactly one TilePlane and keep
    # nothing per place beside it
    allocated = []
    real = TilePlane.allocate.__func__

    def spy(cls, *args, **kwargs):
        allocated.append(args[0])
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(TilePlane, "allocate", classmethod(spy))
    want, reference = run_plane("diagonal", MixApp(), fault_plans=[FaultPlan(1, at_fraction=0.5)])
    got, report = run_plane(
        "diagonal",
        MixApp(),
        fault_plans=[FaultPlan(1, at_fraction=0.5)],
        tile_shape=(4, 4),
    )
    assert got == want and report.recoveries == reference.recoveries == 1
    assert [grid.cellwise for grid in allocated] == [True, False]


# -- (c) one accounting rule ------------------------------------------------------------
@pytest.mark.skipif(not shm_supported(), reason="no usable shared memory")
@pytest.mark.parametrize("name", ["diagonal", "grid", "interval"])
def test_inline_and_mp_shm_charge_the_same_bytes(name):
    shape = tile_shape_for(name)
    _, inline = run_plane(name, MixApp(), engine="inline", tile_shape=shape)
    _, mp_shm = run_plane(name, MixApp(), engine="mp", shm=True, tile_shape=shape)
    _, mp_pipe = run_plane(name, MixApp(), engine="mp", shm=False, tile_shape=shape)
    assert inline.network_bytes == mp_shm.network_bytes > 0
    assert inline.network_bytes == mp_pipe.network_bytes
    assert (
        inline.network_messages
        == mp_shm.network_messages
        == mp_pipe.network_messages
    )


def test_typed_planes_charge_itemsize_object_planes_the_model():
    def nbytes(app, value_nbytes):
        _, report = run_plane(
            "diagonal", app, tile_shape=(4, 4), value_nbytes=value_nbytes
        )
        return report.network_bytes

    # typed: the dtype decides, the configured model is ignored
    assert nbytes(MixApp(), 8) == nbytes(MixApp(), 16) == 2 * nbytes(Int32App(), 8)
    # object-valued: there is no item size, so the model is the charge
    assert nbytes(PairApp(), 16) == 2 * nbytes(PairApp(), 8) > 0


def test_off_home_execution_charges_reads_and_write_back_by_one_rule():
    # the random scheduler runs tiles away from home, so halo reads and
    # result write-backs both cross places; placement is seed-determined,
    # so halving the item size must halve every charge
    def run(app):
        return run_plane(
            "grid", app, tile_shape=(3, 3), scheduler="random", seed=5
        )

    want, _ = run_plane("grid", MixApp())
    got64, wide = run(MixApp())
    got32, narrow = run(Int32App())
    assert got64 == want == got32
    assert wide.network_bytes == 2 * narrow.network_bytes > 0


# -- one merged batch per inline turn ------------------------------------------------------
def _sw_1024():
    from repro.apps.smith_waterman import SWApp

    rng = np.random.default_rng(7)
    return SWApp(*("".join(rng.choice(list("ACGT"), 1024)) for _ in range(2)))


def test_inline_turn_sweeps_every_place_s_ready_tiles_in_one_call(monkeypatch):
    # SW 1024^2 at 64^2 on 2 inline places: a driver turn drains both
    # places' ready lists into one run_tiles call, so a tile antidiagonal
    # shared by the places sweeps once, not once per place
    from repro.analysis.flatsweep import FlatSweepKernel
    from repro.core import worker

    turns, sweeps = [], []
    real_execute, real_sweep = worker.execute_tiles, FlatSweepKernel.sweep

    def execute(state, tiles):
        turns.append(len(tiles))
        return real_execute(state, tiles)

    def sweep(self, *args):
        sweeps.append(len(args[2]))
        return real_sweep(self, *args)

    monkeypatch.setattr(worker, "execute_tiles", execute)
    monkeypatch.setattr(FlatSweepKernel, "sweep", sweep)
    calls = _spy_run_tiles(monkeypatch)
    config = dict(tile_shape=(64, 64), nplaces=2, scheduler="local")
    inline = DPX10Runtime(_sw_1024(), DiagonalDag(1025, 1025), DPX10Config(**config)).run()
    assert [len(tiles) for tiles, *_ in calls] == turns
    # with local placement every turn is one whole tile antidiagonal of
    # the 16 x 16 grid (1025 = 1 + 16 * 64: the boundary row and column
    # join the first tile row and column)
    assert [sorted({ti + tj for ti, tj in tiles}) for tiles, *_ in calls] == [
        [k] for k in range(31)
    ]
    assert turns == [min(k, 30 - k) + 1 for k in range(31)]
    assert any(len(set(homes)) == 2 for _, _, homes, _ in calls)
    # one sweep per antidiagonal: every tile of a level, peeled or not,
    # shares its geometry and profile (with 1-wide trailing tiles: 33
    # calls and 64 sweeps; two places swept apart needed 49 and 79)
    assert len(calls) == 31 and len(sweeps) == 31
    # places stay accounting labels: the threaded engine, whose places
    # sweep their own lists, executes and charges exactly the same
    threaded = DPX10Runtime(
        _sw_1024(), DiagonalDag(1025, 1025), DPX10Config(engine="threaded", **config)
    ).run()
    assert inline.per_place_executed == threaded.per_place_executed
    assert set(inline.per_place_executed) == {0, 1}
    assert inline.network_bytes == threaded.network_bytes > 0


def test_a_throttled_place_s_tile_spans_carry_its_sleep(monkeypatch):
    # one merged call holds every place's tiles, but the slow place's
    # sleep lands on its own tiles' spans: that is what flags a straggler
    from repro.chaos.controller import ChaosController
    from repro.chaos.schedule import ChaosSchedule, ThrottleSpec

    slept = Counter()
    real = ChaosController.throttle_batch

    def throttle_batch(self, place_id, ncells):
        got = real(self, place_id, ncells)
        slept[place_id] += got
        return got

    monkeypatch.setattr(ChaosController, "throttle_batch", throttle_batch)
    chaos = ChaosSchedule(seed=1, throttles=(ThrottleSpec(1, sleep_s=0.002),))
    calls = _spy_run_tiles(monkeypatch)
    _, report = run_plane("diagonal", MixApp(), tile_shape=(4, 4), chaos=chaos, trace=True)
    assert any(len(set(places)) == NPLACES for _, places, _, _ in calls)
    events = [e for e in report.trace.events if e.tile is not None]
    busy = Counter()
    for e in events:
        busy[e.exec_place] += e.end - e.start
    assert slept[1] > 0 and slept[0] == slept[2] == 0
    assert busy[1] >= slept[1] * (1 - 1e-9)
    assert busy[0] + busy[2] < slept[1] / 2
    for p in range(NPLACES):
        mine = sorted((e.start, e.end) for e in events if e.exec_place == p)
        assert all(e0 <= s1 for (_s0, e0), (s1, _e1) in zip(mine, mine[1:]))


def test_inline_kill_between_homes_of_one_merged_call_recovers(monkeypatch):
    # the kill lands after a tile of one home, with a tile of another
    # home later in the same run_tiles call: that tile is computed and
    # flagged but never accounted, and recovery must keep it whole
    import repro.core.runtime as runtime_mod

    app, _dag, tiled, _kernel, _lv, want = _levels("sw")
    calls = _spy_run_tiles(monkeypatch)
    config = DPX10Config(nplaces=NPLACES, tile_shape=(4, 4))
    DPX10Runtime(app, DiagonalDag(*want.shape), config).run()
    completed = 0
    for tiles, _places, homes, _cells in calls:
        sizes = [len(tiled.cells_of(*t)[0]) for t in tiles]
        cut = next(
            (k for k in range(1, len(tiles)) if 0 != homes[k - 1] != homes[k]), None
        )
        if cut is not None:
            break
        completed += sum(sizes)
    assert cut is not None
    victim, threshold = homes[cut - 1], completed + sum(sizes[:cut])
    unaccounted = [t for t, h in zip(tiles[cut:], homes[cut:]) if h != victim]
    assert unaccounted

    seen = []
    real = runtime_mod.recover_tiled

    def recording(state):
        seen.append((state.plane.finished.astype(bool), np.array(state.plane.values)))
        return real(state)

    monkeypatch.setattr(runtime_mod, "recover_tiled", recording)
    dag = DiagonalDag(*want.shape)
    report = DPX10Runtime(
        app, dag, config, fault_plans=[FaultPlan(victim, after_completions=threshold)]
    ).run()
    assert report.recoveries == 1
    assert dag.to_array(fill=-1, dtype=np.int64).tolist() == want.tolist()
    ((finished, values),) = seen
    for t in tiled.active_tiles():
        flags = finished[tiled.cells_of(*t)]
        assert flags.all() or not flags.any(), t
    for t in unaccounted:
        cells = tiled.cells_of(*t)
        assert finished[cells].all()
        assert values[cells].tolist() == want[cells].tolist()


# -- (d) snapshot and spill on the plane --------------------------------------------------
@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_tiled_snapshot_mode_survives_a_kill(engine):
    want, _ = run_plane("diagonal", MixApp())
    got, report = run_plane(
        "diagonal",
        MixApp(),
        fault_plans=[FaultPlan(1, at_fraction=0.5)],
        engine=engine,
        tile_shape=(4, 4),
        ft_mode="snapshot",
        snapshot_interval=30,
    )
    assert got == want
    assert report.recoveries == 1
    stats = report.recovery_stats[0]
    assert stats.mechanism == "snapshot"
    assert 0 < stats.restored_from_snapshot < report.active_vertices
    assert report.snapshots_taken > 1 and report.snapshot_cells_copied > 0


def test_tiled_spill_survives_a_kill_on_a_memmapped_plane(tmp_path, monkeypatch):
    backings = set()
    real = plane_mod.run_tiles

    def spying(plane, *rest):
        backings.add(type(plane.values))
        return real(plane, *rest)

    monkeypatch.setattr(plane_mod, "run_tiles", spying)
    want, _ = run_plane("diagonal", MixApp())
    got, report = run_plane(
        "diagonal",
        MixApp(),
        fault_plans=[FaultPlan(1, at_fraction=0.5)],
        tile_shape=(4, 4),
        spill_dir=str(tmp_path),
    )
    assert got == want and report.recoveries == 1
    assert backings == {np.memmap}
    # mapped, then unlinked: nothing to clean up however the run ends
    assert list(tmp_path.iterdir()) == []


def test_mp_spill_survives_a_kill_on_memmapped_planes(tmp_path, monkeypatch):
    # spill_dir rules out shm; the master's plane (and each place's)
    # must then really be a memmap, not a RAM stand-in
    backings = []
    real = TilePlane.allocate.__func__

    def spying(cls, *args, **kwargs):
        plane = real(cls, *args, **kwargs)
        backings.append(type(plane.values))
        return plane

    want, _ = run_plane("diagonal", MixApp())  # allocates its own plane
    monkeypatch.setattr(TilePlane, "allocate", classmethod(spying))
    got, report = run_plane(
        "diagonal",
        MixApp(),
        fault_plans=[FaultPlan(1, at_fraction=0.5)],
        engine="mp",
        tile_shape=(4, 4),
        spill_dir=str(tmp_path),
    )
    assert got == want and report.recoveries == 1
    assert backings == [np.memmap]
    assert list(tmp_path.iterdir()) == []


# -- the plane itself ---------------------------------------------------------------------
class TestTilePlane:
    def _plane(self):
        plane = TilePlane.allocate(TileGrid(6, 6, 3, 3), np.int64)
        dist = Dist.block_cols(Region2D(0, 6, 0, 6), [0, 1])
        plane.home(dist, [(0, 0), (0, 1), (1, 0), (1, 1)])
        return plane

    def test_home_follows_the_unit_origin(self):
        plane = self._plane()
        assert plane.owners.tolist() == [[0, 1], [0, 1]]
        rows, cols = np.array([0, 5, 2]), np.array([2, 3, 5])
        assert plane.owners_of(rows, cols).tolist() == [0, 1, 1]

    def test_lose_zeroes_and_rehomes_only_the_dead_places_units(self):
        plane = self._plane()
        plane.values[...] = 7
        plane.finished[...] = 1
        survivors = Dist.block_cols(Region2D(0, 6, 0, 6), [0])
        plane.lose([1], survivors)
        assert plane.owners.tolist() == [[0, 0], [0, 0]]
        assert plane.values[:, :3].tolist() == [[7] * 3] * 6
        assert not plane.values[:, 3:].any() and not plane.finished[:, 3:].any()
        assert plane.finished[:, :3].all()

    def test_lose_keeps_ownership_of_replaced_places(self):
        plane = self._plane()
        plane.finished[...] = 1
        plane.lose([1], None, rehome=[])
        assert plane.owners.tolist() == [[0, 1], [0, 1]]
        assert not plane.finished[:, 3:].any() and plane.finished[:, :3].all()

    def test_a_leading_tile_is_owned_and_lost_whole(self):
        # 7 = 1 + 2 * 3 rows: tile row 0 holds rows 0..3
        plane = TilePlane.allocate(TileGrid(7, 6, 3, 3), np.int64)
        dist = Dist.block_rows(Region2D(0, 7, 0, 6), [0, 1])
        plane.home(dist, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert plane.owners.shape == (2, 2)
        rows, cols = np.array([0, 3, 4, 6]), np.array([0, 5, 0, 5])
        assert plane.grid.tile_of(rows, cols)[0].tolist() == [0, 0, 1, 1]
        plane.values[...] = 7
        plane.finished[...] = 1
        plane.lose([int(plane.owners[0, 0])], Dist.block_rows(Region2D(0, 7, 0, 6), [9]))
        assert plane.owners[0].tolist() == [9, 9] and 9 not in plane.owners[1]
        assert not plane.finished[:4].any() and plane.finished[4:].all()

    def test_results_view_is_live_and_copy_is_frozen(self):
        plane = self._plane()
        live, frozen = plane.results(), plane.results(copy=True)
        plane.values[1, 1] = 5
        plane.finished[1, 1] = 1
        assert live[(1, 1)] == 5 and (1, 1) not in frozen
        assert isinstance(live, PlaneResults) and len(live) == 1
        with pytest.raises(KeyError):
            live[(0, 0)]
        plane.restore(frozen)
        assert len(live) == 0

    def test_an_unfinished_read_is_a_typed_error_naming_its_cell(self):
        from repro.errors import DPX10Error, UnfinishedReadError

        plane = self._plane()
        for cell in [(0, 0), (-1, 2), (99, 0)]:  # unfinished, then off the matrix
            with pytest.raises(UnfinishedReadError) as exc:
                plane.results()[cell]
            assert exc.value.cell == cell and str(cell) in str(exc.value)
            assert isinstance(exc.value, DPX10Error) and isinstance(exc.value, KeyError)
        assert plane.results().get((0, 0), "absent") == "absent"  # Mapping.get still works

    @pytest.mark.parametrize("dtype", [np.int64, None])
    def test_to_array_reads_a_partly_finished_plane(self, dtype):
        # the bulk gather behind Dag.to_array: typed and object planes,
        # unfinished cells read as the fill whatever the plane holds there
        plane = TilePlane.allocate(TileGrid(3, 4, 1, 1), dtype)
        plane.values[...] = np.arange(12).reshape(3, 4)
        plane.finished[::2, 1:] = 1
        dag = DiagonalDag(3, 4)
        plane_mod.bind_mapping(dag, plane.results())
        want = np.where(plane.finished.astype(bool), np.arange(12).reshape(3, 4), -1)
        got = dag.to_array(fill=-1, dtype=np.int64)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        got = dag.to_array(fill=None, dtype=object)
        assert got.dtype == object
        assert got.tolist() == [[v if v != -1 else None for v in row] for row in want.tolist()]

    def test_object_plane_holds_composite_values(self):
        plane = TilePlane.allocate(TileGrid(2, 2, 1, 1), None, value_nbytes=24)
        assert plane.nbytes == 24 and plane.values.dtype == object
        plane.values[0, 1] = np.arange(3)
        plane.finished[0, 1] = 1
        assert plane.results()[(0, 1)].tolist() == [0, 1, 2]
