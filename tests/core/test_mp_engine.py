"""Tests for the multiprocessing engine (places as real OS processes)."""

import numpy as np
import pytest

from repro.apgas.failure import FaultPlan
from repro.apps.knapsack import make_knapsack_instance, solve_knapsack
from repro.apps.lcs import solve_lcs
from repro.apps.lps import solve_lps
from repro.apps.serial import knapsack_matrix, lcs_matrix, lps_matrix
from repro.apps.tree_knapsack import make_tree_instance
from repro.apps.tree_mis import solve_tree_mis
from repro.core import mp_engine
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.domain import TreeDomain
from repro.core.mp_engine import _topological_levels
from repro.core.plane import PlaneResults
from repro.core.runtime import DPX10Runtime
from repro.core.shm import shm_supported
from repro.errors import DPX10Error, PlaceZeroDeadError, RemoteComputeError
from repro.patterns import DiagonalDag, GridDag, IntervalDag

X, Y = "ABCBDABACGTACGT", "BDCABAACGGTTAC"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])


class TestTopologicalLevels:
    def test_diagonal_levels_are_antidiagonals(self):
        levels = _topological_levels(DiagonalDag(3, 3))
        assert levels[0] == [(0, 0)]
        assert sorted(levels[1]) == [(0, 1), (1, 0)]
        assert len(levels) == 5  # anti-diagonals of a 3x3

    def test_grid_levels_cover_all(self):
        levels = _topological_levels(GridDag(4, 5))
        assert sum(len(lv) for lv in levels) == 20

    def test_interval_levels_respect_triangle(self):
        levels = _topological_levels(IntervalDag(4, 4))
        assert sorted(levels[0]) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert sum(len(lv) for lv in levels) == 10

    def test_no_cell_before_its_dependency(self):
        dag = DiagonalDag(5, 5)
        levels = _topological_levels(dag)
        depth = {}
        for k, lv in enumerate(levels):
            for c in lv:
                depth[c] = k
        for i, j in dag.region:
            for d in dag.get_dependency(i, j):
                assert depth[(d.i, d.j)] < depth[(i, j)]


class TestMPExecution:
    def test_lcs_matches_oracle(self):
        app, rep = solve_lcs(X, Y, DPX10Config(nplaces=3, engine="mp"))
        assert app.length == EXPECT
        assert rep.completions == rep.active_vertices

    def test_single_place(self):
        app, rep = solve_lcs(X, Y, DPX10Config(nplaces=1, engine="mp"))
        assert app.length == EXPECT
        assert rep.network_bytes == 0  # nothing crosses a process boundary

    def test_cross_place_bytes_are_real(self):
        cfg = DPX10Config(nplaces=3, engine="mp", tile_shape=(1, 1))
        _, rep = solve_lcs(X, Y, cfg)
        assert rep.network_bytes > 0
        assert rep.network_messages > 0

    def test_work_split_across_processes(self):
        cfg = DPX10Config(nplaces=3, engine="mp", tile_shape=(1, 1))
        _, rep = solve_lcs(X, Y, cfg)
        assert set(rep.per_place_executed) == {0, 1, 2}
        assert sum(rep.per_place_executed.values()) == rep.completions

    def test_triangular_pattern(self):
        s = "ABCBACBDDBACB"
        app, _ = solve_lps(s, DPX10Config(nplaces=2, engine="mp"))
        assert app.length == lps_matrix(s)[0, len(s) - 1]

    def test_custom_knapsack_pattern(self):
        w, v = make_knapsack_instance(7, 18, seed=5)
        app, _ = solve_knapsack(w, v, 18, DPX10Config(nplaces=2, engine="mp"))
        assert app.best_value == knapsack_matrix(w, v, 18)[-1, -1]

    @pytest.mark.parametrize("dist", ["block_rows", "block_cols", "cyclic_cols"])
    def test_distribution_axis(self, dist):
        cfg = DPX10Config(nplaces=3, engine="mp", distribution=dist)
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT


class TestMPFaults:
    def test_sigkill_recovery_preserves_answer(self):
        cfg = DPX10Config(nplaces=3, engine="mp", tile_shape=(1, 1))
        app, rep = solve_lcs(
            X, Y, cfg, fault_plans=[FaultPlan(2, at_fraction=0.5)]
        )
        assert app.length == EXPECT
        assert rep.recoveries == 1
        assert rep.final_alive_places == 2
        # the dead partition was recomputed
        assert rep.completions > rep.active_vertices

    def test_place_zero_kill_unrecoverable(self):
        cfg = DPX10Config(nplaces=2, engine="mp")
        with pytest.raises(PlaceZeroDeadError):
            solve_lcs(X, Y, cfg, fault_plans=[FaultPlan(0, at_fraction=0.4)])

    def test_two_sequential_faults(self):
        cfg = DPX10Config(nplaces=4, engine="mp", tile_shape=(1, 1))
        plans = [FaultPlan(3, at_fraction=0.3), FaultPlan(2, at_fraction=0.7)]
        app, rep = solve_lcs(X, Y, cfg, fault_plans=plans)
        assert app.length == EXPECT
        assert rep.recoveries == 2
        assert rep.final_alive_places == 2


class BoomApp(DPX10App[int]):
    """Sums its dependencies; ``compute()`` raises at one cell."""

    value_dtype = np.int64

    def __init__(self, boom=(5, 5)):
        self.boom = boom

    def compute(self, i, j, vertices):
        if (i, j) == self.boom:
            raise ValueError(f"boom at {(i, j)}")
        return 1 + sum(int(v.get_result()) for v in vertices) % 1009


BACKINGS = pytest.mark.parametrize("shm", [True, False], ids=["shm", "pipe"])


def _skip_without_shm(shm):
    if shm and not shm_supported():
        pytest.skip("no usable shared memory on this platform")


class TestOneMasterTwoBackings:
    @BACKINGS
    @pytest.mark.parametrize("tile_shape", [(1, 1), (4, 4)], ids=["cells", "tiles"])
    def test_user_exception_is_typed_and_carries_the_remote_traceback(
        self, shm, tile_shape
    ):
        _skip_without_shm(shm)
        cfg = DPX10Config(nplaces=2, engine="mp", shm=shm, tile_shape=tile_shape)
        with pytest.raises(RemoteComputeError) as err:
            DPX10Runtime(BoomApp(), DiagonalDag(9, 9), cfg).run()
        assert err.value.place_id in (0, 1)
        assert "ValueError: boom at (5, 5)" in err.value.remote_traceback
        assert "in compute" in err.value.remote_traceback

    @BACKINGS
    def test_results_are_plane_results_on_both_backings(self, shm):
        _skip_without_shm(shm)
        dag = DiagonalDag(6, 6)
        cfg = DPX10Config(nplaces=2, engine="mp", shm=shm)
        results, _ = mp_engine.run_mp(BoomApp(boom=None), dag, cfg)
        assert isinstance(results, PlaneResults) and len(results) == 36

    @pytest.mark.parametrize("domain", ["tree", "grid"])
    def test_missing_vertices_are_named_in_domain_terms(self, domain, monkeypatch):
        # a place that acknowledges a batch without computing one cell:
        # the master's finish flags must catch it and say which one
        parents, weights, _ = make_tree_instance(12, seed=3)
        if domain == "tree":  # object values: private planes
            skipped, shown = TreeDomain(parents).to_cell(0), "node 0"
        else:
            _skip_without_shm(True)
            skipped, shown = (8, 8), r"\(8, 8\)"
        real = mp_engine._PlaceWorker.compute_cells

        def forgetful(self, cells, sink=None):
            return real(self, [c for c in cells if tuple(c) != skipped], sink)

        monkeypatch.setattr(mp_engine._PlaceWorker, "compute_cells", forgetful)
        cfg = DPX10Config(nplaces=2, engine="mp", tile_shape=(1, 1))
        with pytest.raises(
            DPX10Error, match=rf"1 vertices missing after run \(first: {shown}\)"
        ):
            if domain == "tree":
                solve_tree_mis(parents, weights, cfg)
            else:
                DPX10Runtime(BoomApp(boom=None), DiagonalDag(9, 9), cfg).run()
