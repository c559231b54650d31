"""Tests for the tile-granular execution engine (repro.core.tiling).

The load-bearing property: for every built-in pattern and any tile shape
the coarsening accepts, tiled execution produces exactly the matrix the
per-vertex path produces — including under an injected place failure —
and ``tile_shape=(1, 1)`` routes through the legacy path untouched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.patterns  # noqa: F401 - registers the built-in patterns
from repro.apgas.failure import FaultPlan
from repro.apps.lps import solve_lps
from repro.apps.serial import sw_matrix
from repro.apps.smith_waterman import SWApp, solve_sw
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.tiling import TileGrid, coarsen_offsets
from repro.errors import PatternError
from repro.patterns.antidiag_band import AntiDiagonalDag
from repro.patterns.base import PATTERNS, StencilDag, get_pattern
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


# -- the tile grid ---------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 12), st.integers(1, 12)
)
def test_tile_grid_partitions_by_the_leading_remainder_rule(H, W, th, tw):
    g = TileGrid(H, W, th, tw)
    owner = np.full((H, W), -1)
    sizes = np.zeros((g.nti, g.ntj), np.int64)
    for ti in range(g.nti):
        for tj in range(g.ntj):
            r0, r1, c0, c1 = g.bounds(ti, tj)
            assert (r0, c0) == g.origin(ti, tj)
            assert g.tile_of(*g.origin(ti, tj)) == (ti, tj)
            assert g.tile_of(r1 - 1, c1 - 1) == (ti, tj)
            assert (owner[r0:r1, c0:c1] == -1).all()
            owner[r0:r1, c0:c1] = ti * g.ntj + tj
            sizes[ti, tj] = (r1 - r0) * (c1 - c0)
    assert (owner >= 0).all()  # the tiles partition the matrix
    rows, cols = np.divmod(np.arange(H * W), W)
    ti, tj = g.tile_of(rows, cols)  # the array form agrees cell by cell
    assert (ti * g.ntj + tj).tolist() == owner.ravel().tolist()
    assert g.per_tile(np.ones((H, W), np.int64)).tolist() == sizes.tolist()
    assert DiagonalDag(H, W).coarsen(th, tw).tile_cells.tolist() == sizes.tolist()
    for n, t, extents in (
        (H, th, [g.bounds(k, 0)[1] - g.bounds(k, 0)[0] for k in range(g.nti)]),
        (W, tw, [g.bounds(0, k)[3] - g.bounds(0, k)[2] for k in range(g.ntj)]),
    ):
        if n % t == 1 and n > t:  # a remainder of one leads
            assert extents == [t + 1] + [t] * (n // t - 1)
        else:  # any other trails, clipped
            assert extents == [t] * (n // t) + ([n % t] if n % t else [])


class ReachDag(StencilDag):
    """Reads two whole 2-row tiles up."""

    offsets = ((-4, 0), (0, -1))


def test_a_leading_tile_keeps_long_reaches_coarsened():
    # a read two whole tiles up that lands in row 0, the leading tile's
    # extra row, crosses only one tile boundary: that edge must exist
    assert coarsen_offsets(((-4, 0),), 2, 2) == ((-2, 0),)
    assert coarsen_offsets(((-4, 0),), 2, 2, lead=(1, 0)) == ((-2, 0), (-1, 0))
    assert coarsen_offsets(((-1, -1),), 2, 2, lead=(1, 1)) == coarsen_offsets(
        ((-1, -1),), 2, 2
    )

    tiled = ReachDag(9, 6).coarsen(2, 2)
    assert tiled.grid.lead == (1, 0)
    # every cell's producers sit in its own tile or in an earlier level
    depth = {t: d for d, level in enumerate(tiled.levels()) for t in level}
    for i, j in tiled.base.region:
        for dep in tiled.base.get_dependency(i, j):
            mine, theirs = tiled.grid.tile_of(i, j), tiled.grid.tile_of(dep.i, dep.j)
            assert theirs == mine or depth[theirs] < depth[mine], ((i, j), dep)
    want = ReachDag(9, 6)
    DPX10Runtime(MixApp(), want, DPX10Config(tile_shape=(1, 1))).run()
    for engine in ("inline", "threaded", "mp"):
        dag = ReachDag(9, 6)
        DPX10Runtime(MixApp(), dag, DPX10Config(engine=engine, tile_shape=(2, 2))).run()
        assert (
            dag.to_array(fill=-1, dtype=np.int64).tolist()
            == want.to_array(fill=-1, dtype=np.int64).tolist()
        )


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
        # two spare rows trail as a clipped tile; the one spare column
        # joins the first tile column
        assert (g.nti, g.ntj) == (3, 2)
        assert g.tile_of(9, 6) == (2, 1)
        assert g.bounds(2, 1) == (8, 10, 4, 7)  # clipped at the edge
        assert g.bounds(0, 0) == (0, 4, 0, 4)

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

    @staticmethod
    def _direct_halo(tiled, ti, tj):
        """Row-major cells outside the tile its cells reach, by brute force."""
        r0, r1, c0, c1 = tiled.grid.bounds(ti, tj)
        base = tiled.base
        return sorted(
            {
                (i + di, j + dj)
                for i in range(r0, r1)
                for j in range(c0, c1)
                for di, dj in base.offsets
                if base.contains(i + di, j + dj)
                and not (r0 <= i + di < r1 and c0 <= j + dj < c1)
            }
        )

    def test_halo_matches_a_direct_computation_on_random_geometries(self, monkeypatch):
        # cached by tile shape and grid-edge margins, not by position:
        # every tile of every geometry still gets exactly its own halo
        from repro.core import tiling

        class WideDag(StencilDag):
            offsets = ((-2, 1), (-1, -3), (0, -2))

        monkeypatch.setattr(tiling, "_HALO_CACHE", {})
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(30):
            pattern = [DiagonalDag, GridDag, WideDag][int(rng.integers(3))]
            h, w = (int(x) for x in rng.integers(3, 40, size=2))
            try:
                tiled = pattern(h, w).coarsen(*(int(x) for x in rng.integers(2, 9, size=2)))
            except PatternError:
                continue
            for ti, tj in tiled.active_tiles():
                rows, cols = tiled.halo_of(ti, tj)
                assert rows.dtype == cols.dtype == np.int64
                got = list(zip(rows.tolist(), cols.tolist()))
                assert got == self._direct_halo(tiled, ti, tj), (pattern, h, w, ti, tj)
                checked += 1
        assert checked > 500
        # one shape on a large grid: at most nine edge classes computed,
        # beside the 100 tiles' own (class, r0, c0) entries
        tiling._HALO_CACHE.clear()
        tiled = DiagonalDag(80, 80).coarsen(8, 8)
        for t in tiled.active_tiles():
            tiled.halo_of(*t)
        classes = [k for k in tiling._HALO_CACHE if len(k) != 3]
        assert 1 < len(classes) <= 9
        assert len(tiling._HALO_CACHE) == len(classes) + 100

    def test_halo_cache_stays_bounded_across_job_sizes(self, monkeypatch):
        # a pooled place meets new ragged edge shapes with every job size
        from repro.core import tiling

        monkeypatch.setattr(tiling, "_HALO_CACHE", {})
        monkeypatch.setattr(tiling, "_HALO_CACHE_SIZE", 24)
        for n in range(40, 90):  # fifty distinct dag sizes
            tiled = DiagonalDag(n, n + 3).coarsen(16, 16)
            for t in tiled.active_tiles():
                tiled.halo_of(*t)
            assert len(tiling._HALO_CACHE) <= 24
        # evicted classes are simply recomputed, and still right
        tiled = DiagonalDag(40, 43).coarsen(16, 16)
        for ti, tj in tiled.active_tiles():
            rows, cols = tiled.halo_of(ti, tj)
            got = list(zip(rows.tolist(), cols.tolist()))
            assert got == self._direct_halo(tiled, ti, tj)

    def test_halo_cache_eviction_is_thread_safe(self, monkeypatch):
        # the job server solves several jobs at once on its executor
        # threads, and every tiled solve inserts into and evicts from the
        # one process-wide halo cache: two evictions racing on one FIFO
        # head fail a solve (a KeyError, or the dict changing size under
        # its iterator). ``result(timeout=...)`` bounds a stuck solve.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import tiling

        monkeypatch.setattr(tiling, "_HALO_CACHE", {})
        monkeypatch.setattr(tiling, "_HALO_CACHE_SIZE", 8)
        rng = np.random.default_rng(0)
        x, y = ("".join(rng.choice(list("ACGT"), 120)) for _ in range(2))
        want = sw_matrix(x, y)

        def solve(seed):
            dag = DiagonalDag(121, 121)
            cfg = DPX10Config(
                engine="inline", nplaces=4, tile_shape=(4, 4), seed=seed
            )
            DPX10Runtime(SWApp(x, y), dag, cfg).run()
            return dag.to_array(fill=-1, dtype=np.int64)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                solves = [pool.submit(solve, seed) for seed in range(8)]
                for done in solves:
                    assert done.result(timeout=60).tolist() == want.tolist()
        finally:
            sys.setswitchinterval(interval)

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

    def test_per_cell_loop_keeps_no_cache_per_job_size(self, monkeypatch):
        # the per-cell loop orders each tile as it runs it: a pooled place
        # meeting new clipped tile shapes with every job size grows nothing
        # but the bounded halo cache
        from repro.core import tiling

        monkeypatch.setattr(tiling, "_HALO_CACHE", {})
        monkeypatch.setattr(tiling, "_HALO_CACHE_SIZE", 24)
        rng = np.random.default_rng(5)
        for n in range(20, 32):  # twelve sizes, each with its own clipped edges
            x, y = ("".join(rng.choice(list("ACGT"), n)) for _ in range(2))
            dag = DiagonalDag(n + 1, n + 1)
            cfg = DPX10Config(tile_shape=(8, 8), sanitize=True)  # the per-cell loop
            DPX10Runtime(SWApp(x, y), dag, cfg).run()
            assert len(tiling._HALO_CACHE) <= 24
            got = dag.to_array(fill=-1, dtype=np.int64)
            assert got.tolist() == sw_matrix(x, y).tolist()

    @pytest.mark.parametrize(
        "name, shape",
        [("diagonal", (3, 3)), ("grid", (2, 5)), ("full_row", (4, 13)), ("interval", (3, 3))],
    )
    def test_batch_release_keeps_the_tile_by_tile_order(self, name, shape):
        # one subtract.at over a batch's out-edges releases exactly the
        # tiles, in exactly the order, that releasing it tile by tile does
        from repro.core.plane import TilePlane
        from repro.core.tiling import TileRunState

        tiled = make_dag(name).coarsen(*shape)
        plane = TilePlane.allocate(tiled.grid, np.int64)
        plane.owners[...] = np.arange(plane.owners.size).reshape(plane.owners.shape) % 3
        ready = {pid: [] for pid in (0, 1, 2)}
        pushed = []

        def push(pid, tile):
            pushed.append((pid, tile))
            ready[pid].append(tile)

        ts = TileRunState(tiled)
        ts.build(plane, [0, 1, 2], push)
        indegree = {
            t: len(tiled.get_dependency(*t)) for t in tiled.active_tiles()
        }
        rng = np.random.default_rng(3)
        done = 0
        while any(ready.values()):
            batch = [t for pid in (0, 1, 2) for t in ready[pid]]
            for q in ready.values():
                q.clear()
            rng.shuffle(batch)
            batch = [tuple(t) for t in batch]
            want = []
            for t in batch:
                for a in tiled.get_anti_dependency(*t):
                    indegree[(a.i, a.j)] -= 1
                    if indegree[(a.i, a.j)] == 0:
                        want.append((int(plane.owners[a.i, a.j]), (a.i, a.j)))
            del pushed[:]
            ts.on_tiles_finished(batch, push)
            assert pushed == want
            done += len(batch)
        assert done == len(tiled.active_tiles())
        assert all(ts.place_done(pid) for pid in (0, 1, 2))

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


class TestSuccessorTable:
    """``TiledDag.successors`` is CSR: one offset per tile plus one entry
    per edge, whatever the fan-out spread, and the wavefront it feeds is
    the one the tile offsets (stencils) or the hoisted cell edges
    (irregular patterns) define."""

    def test_egg_drop_reference_grid_stores_edges_not_padding(self):
        from repro.apps.egg_drop import EggDropDag

        tiled = EggDropDag(4, 800).coarsen(1, 1)
        ptr, succ = tiled.successors
        edges, tiles = len(succ), tiled.grid.nti * tiled.grid.ntj
        assert len(ptr) == tiles + 1 and ptr[-1] == edges
        assert ptr.nbytes + succ.nbytes <= (edges + tiles + 1) * 4

    @staticmethod
    def reference(tiled):
        """Successor lists from the definition, then Kahn by generations,
        each released tile queued at its last edge."""
        g, active = tiled.grid, tiled.tile_active
        tiles = [(ti, tj) for ti in range(g.nti) for tj in range(g.ntj)]
        if tiled.stencil_mode:
            succ = {
                (ti, tj): [
                    (ti - a, tj - b)
                    for a, b in tiled.tile_offsets
                    if 0 <= ti - a < g.nti and 0 <= tj - b < g.ntj and active[ti - a, tj - b]
                ]
                for ti, tj in tiles
            }
        else:
            base, hoisted = tiled.base, {t: set() for t in tiles}
            for i, j in base.active_cells():
                dst = tuple(int(x) for x in g.tile_of(i, j))
                for d in base.get_dependency(i, j):
                    src = tuple(int(x) for x in g.tile_of(d.i, d.j))
                    if base.is_active(d.i, d.j) and src != dst:
                        hoisted[src].add(dst)
            succ = {t: sorted(s) for t, s in hoisted.items()}
        indegree = {t: 0 for t in tiles}
        for t in tiles:
            if active[t]:
                for s in succ[t]:
                    indegree[s] += 1
        left = dict(indegree)
        level, levels = [t for t in tiles if active[t] and indegree[t] == 0], []
        while level:
            levels.append(level)
            nxt = []
            for t in level:
                for s in succ[t]:
                    left[s] -= 1
                    if left[s] == 0:
                        nxt.append(s)
            level = nxt
        return succ, [indegree[t] for t in tiles], levels

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 3)])
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_indegrees_and_levels_match_the_definition(self, name, shape):
        from repro.core.plane import TilePlane
        from repro.core.tiling import TileRunState

        cls = get_pattern(name)
        dag = cls(9, 9, 2) if name == "banded" else cls(9, 9)
        try:
            tiled = dag.coarsen(*shape)
        except PatternError:
            pytest.skip("this shape does not coarsen the pattern")
        succ, indegree, levels = self.reference(tiled)
        plane = TilePlane.allocate(tiled.grid, np.int64)
        plane.owners[:] = 0
        state, pushed = TileRunState(tiled), []
        state.build(plane, [0], lambda pid, tile: pushed.append(tile))
        active = tiled.tile_active.ravel()
        assert state.indegree[active].tolist() == np.array(indegree)[active].tolist()
        assert [list(map(tuple, lv)) for lv in tiled.levels()] == levels
        assert pushed == levels[0]
        for t, s in succ.items():
            assert [tuple(v) for v in tiled.get_anti_dependency(*t)] == s
