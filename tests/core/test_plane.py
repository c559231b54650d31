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


@pytest.mark.parametrize("engine", ["inline", "threaded"])
def test_in_process_engines_run_every_tile_through_run_tile(engine, monkeypatch):
    seen = Counter()
    real = plane_mod.run_tiles

    def counting(plane, tiled, app, kernel, tiles, place_id, *rest):
        seen.update(tuple(t) for t in tiles)
        return real(plane, tiled, app, kernel, tiles, place_id, *rest)

    monkeypatch.setattr(plane_mod, "run_tiles", counting)
    dag = DiagonalDag(SIZE, SIZE)
    DPX10Runtime(
        MixApp(), dag, DPX10Config(nplaces=NPLACES, engine=engine, tile_shape=(4, 4))
    ).run()
    assert set(seen) == _active_tiles(DiagonalDag(SIZE, SIZE).coarsen(4, 4))
    assert set(seen.values()) == {1}


def _log_run_tiles(log, monkeypatch):
    """Spy on ``run_tiles`` in forked places: one log line per call,
    ``kernel-type ti,tj ti,tj ...`` (an O_APPEND line is their way back)."""
    real = plane_mod.run_tiles

    def logging(plane, tiled, app, kernel, tiles, place_id, *rest):
        with open(log, "a") as fh:
            coords = " ".join(f"{ti},{tj}" for ti, tj in tiles)
            fh.write(f"{type(kernel).__name__} {coords}\n")
        return real(plane, tiled, app, kernel, tiles, place_id, *rest)

    monkeypatch.setattr(plane_mod, "run_tiles", logging)


def _logged_calls(log):
    calls = []
    for line in log.read_text().splitlines():
        name, *coords = line.split()
        calls.append((name, [tuple(map(int, c.split(","))) for c in coords]))
    return calls


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the spy reaches places by fork")
@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_places_run_every_tile_through_run_tile(shm, tmp_path, monkeypatch):
    if shm and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    from repro.apps.smith_waterman import SWApp

    log = tmp_path / "tiles.log"
    _log_run_tiles(log, monkeypatch)
    a, b = "GATTACAGATTACA", "GCATGCTGCATG"
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
    # a place gets its share of a level in one call, not tile by tile
    assert max(len(tiles) for _, tiles in calls) > 1
    # the generated kernel, on the private-plane backing too
    assert {name for name, _ in calls} == {"AutoKernel"}
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


def _sw_levels(n=24, m=20, shape=(4, 4)):
    """A tiled SW instance under its generated kernel, level by level."""
    from repro.analysis.codegen import build_autokernel
    from repro.apps.smith_waterman import SWApp
    from repro.core.mp_engine import _topological_levels

    rng = np.random.default_rng(5)
    a, b = ("".join(rng.choice(list("ACGT"), k)) for k in (n, m))
    app = SWApp(a, b)
    want = DiagonalDag(n + 1, m + 1)
    DPX10Runtime(app, want, DPX10Config(tile_shape=(1, 1))).run()
    dag = DiagonalDag(n + 1, m + 1)
    tiled = dag.coarsen(*shape)
    kernel = plane_mod.tile_kernel(app, tiled, build_autokernel(app, dag)[0])
    levels = _topological_levels(tiled)
    return app, dag, tiled, kernel, levels, want.to_array(fill=-1, dtype=np.int64)


def test_a_batch_cut_short_leaves_no_flag_without_its_values():
    # whatever stops a place inside a level batch (a SIGKILL, on the shm
    # backing, leaves exactly this in the shared segments), a tile is
    # either flagged with every value in place or not flagged at all
    app, dag, tiled, kernel, levels, want = _sw_levels()
    plane = TilePlane.allocate(want.shape, app.value_dtype, (4, 4))
    plane.owners[...] = 0
    cut = 3  # row-0 tile + col-0 tile + interior tiles: three sweeps
    for level in levels[:cut]:
        plane_mod.run_tiles(plane, tiled, app, kernel, level, 0)
    calls = []
    real = kernel.fn.sweep

    def dying(*args):
        calls.append(len(args[2]))
        if len(calls) == 2:
            raise KeyboardInterrupt("place dies here")
        return real(*args)

    kernel.fn.sweep = dying
    with pytest.raises(KeyboardInterrupt):
        plane_mod.run_tiles(plane, tiled, app, kernel, levels[cut], 0)
    kernel.fn.sweep = real
    flagged = 0
    for t in levels[cut]:
        rows, cols = tiled.cells_of(*t)
        flags = plane.finished[rows, cols]
        assert flags.all() or not flags.any()
        if flags.all():
            flagged += 1
            assert plane.values[rows, cols].tolist() == want[rows, cols].tolist()
    assert 0 < flagged < len(levels[cut])
    # the recompute of the whole level lands on the oracle
    plane_mod.run_tiles(plane, tiled, app, kernel, levels[cut], 0)
    for level in levels[cut + 1 :]:
        plane_mod.run_tiles(plane, tiled, app, kernel, level, 0)
    assert plane.values.tolist() == want.tolist() and plane.finished.all()


@pytest.mark.parametrize("shm", [True, False], ids=["mp-shm", "mp-pipe"])
def test_mp_kill_inside_a_level_batch_recovers_bit_identically(shm):
    if shm and not shm_supported():
        pytest.skip("no usable shared memory on this platform")
    app, dag, tiled, _kernel, levels, want = _sw_levels()
    # a completion count strictly inside the widest level: the victim
    # dies holding a batch of several tiles' worth of results
    cells = [sum(len(tiled.cells_of(*t)[0]) for t in lv) for lv in levels]
    widest = max(range(len(levels)), key=lambda k: len(levels[k]))
    assert len(levels[widest]) >= 4
    threshold = sum(cells[:widest]) + cells[widest] // 2
    config = DPX10Config(
        nplaces=2, engine="mp", shm=shm, tile_shape=(4, 4), autokernel=True
    )
    report = DPX10Runtime(
        app, dag, config, fault_plans=[FaultPlan(1, after_completions=threshold)]
    ).run()
    assert report.recoveries == 1
    assert dag.to_array(fill=-1, dtype=np.int64).tolist() == want.tolist()
    assert leaked_segments() == []


def test_tiled_in_process_runs_build_no_vertex_stores(monkeypatch):
    want, _ = run_plane("diagonal", MixApp())
    import repro.core.recovery as recovery_mod
    import repro.core.runtime as runtime_mod

    def no_stores(*args, **kwargs):
        raise AssertionError("tiled runs must not build per-place stores")

    monkeypatch.setattr(runtime_mod, "build_stores", no_stores)
    monkeypatch.setattr(recovery_mod, "build_stores", no_stores)
    got, report = run_plane(
        "diagonal",
        MixApp(),
        fault_plans=[FaultPlan(1, at_fraction=0.5)],
        tile_shape=(4, 4),
    )
    assert got == want and report.recoveries == 1


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

    monkeypatch.setattr(TilePlane, "allocate", classmethod(spying))
    want, _ = run_plane("diagonal", MixApp())
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
        plane = TilePlane.allocate((6, 6), np.int64, (3, 3))
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
        assert plane.lose([1], survivors) == [(0, 1), (1, 1)]
        assert plane.owners.tolist() == [[0, 0], [0, 0]]
        assert plane.values[:, :3].tolist() == [[7] * 3] * 6
        assert not plane.values[:, 3:].any() and not plane.finished[:, 3:].any()
        assert plane.finished[:, :3].all()

    def test_lose_keeps_ownership_of_replaced_places(self):
        plane = self._plane()
        plane.finished[...] = 1
        assert plane.lose([1], None, rehome=[]) == [(0, 1), (1, 1)]
        assert plane.owners.tolist() == [[0, 1], [0, 1]]
        assert not plane.finished[:, 3:].any()

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

    def test_object_plane_holds_composite_values(self):
        plane = TilePlane.allocate((2, 2), None, (1, 1), value_nbytes=24)
        assert plane.nbytes == 24 and plane.values.dtype == object
        plane.values[0, 1] = np.arange(3)
        plane.finished[0, 1] = 1
        assert plane.results()[(0, 1)].tolist() == [0, 1, 2]
