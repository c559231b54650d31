"""Tests for DPX10Runtime: execution flow, reports, error paths."""

import numpy as np
import pytest

from repro.apgas.failure import FaultPlan
from repro.core.api import DPX10App, dependency_map
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.errors import PatternError, PlaceZeroDeadError
from repro.patterns.grid import GridDag


class SumApp(DPX10App[int]):
    """D[i,j] = D[i-1,j] + D[i,j-1], seeds 1 — Pascal-like counts."""

    value_dtype = np.int64

    def compute(self, i, j, vertices):
        if i == 0 and j == 0:
            return 1
        dep = dependency_map(vertices)
        return dep.get((i - 1, j), 0) + dep.get((i, j - 1), 0)

    def app_finished(self, dag):
        self.corner = int(dag.get_vertex(dag.height - 1, dag.width - 1).get_result())


def pascal_corner(h, w):
    import math

    return math.comb(h + w - 2, h - 1)


class TestBasicExecution:
    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_computes_correct_values(self, engine):
        app = SumApp()
        dag = GridDag(6, 7)
        report = DPX10Runtime(app, dag, DPX10Config(nplaces=3, engine=engine)).run()
        assert app.corner == pascal_corner(6, 7)
        assert report.completions == 42
        assert report.active_vertices == 42
        assert report.recoveries == 0

    def test_single_place(self):
        app = SumApp()
        DPX10Runtime(app, GridDag(4, 4), DPX10Config(nplaces=1)).run()
        assert app.corner == pascal_corner(4, 4)

    def test_single_vertex_dag(self):
        app = SumApp()
        DPX10Runtime(app, GridDag(1, 1), DPX10Config(nplaces=2)).run()
        assert app.corner == 1

    def test_more_places_than_columns(self):
        app = SumApp()
        DPX10Runtime(app, GridDag(3, 2), DPX10Config(nplaces=5)).run()
        assert app.corner == pascal_corner(3, 2)

    def test_dag_bound_after_run(self):
        dag = GridDag(3, 3)
        DPX10Runtime(SumApp(), dag).run()
        assert dag.get_vertex(0, 0).get_result() == 1

    def test_report_property_accessible(self):
        rt = DPX10Runtime(SumApp(), GridDag(3, 3))
        assert rt.report is None
        rep = rt.run()
        assert rt.report is rep


class TestReportAccounting:
    def test_network_traffic_zero_on_single_place(self):
        rep = DPX10Runtime(SumApp(), GridDag(5, 5), DPX10Config(nplaces=1)).run()
        assert rep.network_bytes == 0

    def test_network_traffic_positive_across_places(self):
        rep = DPX10Runtime(
            SumApp(),
            GridDag(5, 5),
            DPX10Config(nplaces=3, cache_size=0, tile_shape=(1, 1)),
        ).run()
        assert rep.network_bytes > 0
        assert rep.network_messages > 0

    def test_cache_reduces_traffic(self):
        # the diagonal stencil reuses each boundary-row vertex for two
        # consumers in the next row band, so a warm cache saves a fetch
        from repro.patterns.diagonal import DiagonalDag

        class DiagSumApp(SumApp):
            def compute(self, i, j, vertices):
                dep = dependency_map(vertices)
                if i == 0 and j == 0:
                    return 1
                return (
                    dep.get((i - 1, j), 0)
                    + dep.get((i, j - 1), 0)
                    + dep.get((i - 1, j - 1), 0)
                )

        # cache_size is a per-vertex-path knob
        ref = dict(nplaces=3, distribution="block_rows", tile_shape=(1, 1))
        cfg0 = DPX10Config(cache_size=0, **ref)
        cfg1 = DPX10Config(cache_size=64, **ref)
        rep0 = DPX10Runtime(DiagSumApp(), DiagonalDag(8, 8), cfg0).run()
        rep1 = DPX10Runtime(DiagSumApp(), DiagonalDag(8, 8), cfg1).run()
        assert rep1.cache_hits > 0
        assert rep1.network_bytes < rep0.network_bytes

    def test_recomputed_zero_without_faults(self):
        rep = DPX10Runtime(SumApp(), GridDag(4, 4)).run()
        assert rep.recomputed == 0

    def test_wall_time_positive(self):
        rep = DPX10Runtime(SumApp(), GridDag(4, 4)).run()
        assert rep.wall_time > 0

    def test_cache_hit_rate_bounds(self):
        rep = DPX10Runtime(SumApp(), GridDag(6, 6), DPX10Config(nplaces=2)).run()
        assert 0.0 <= rep.cache_hit_rate <= 1.0


class TestFaults:
    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_recovery_preserves_answer(self, engine):
        app = SumApp()
        cfg = DPX10Config(nplaces=3, engine=engine)
        rep = DPX10Runtime(
            app,
            GridDag(8, 8),
            cfg,
            fault_plans=[FaultPlan(1, at_fraction=0.5)],
        ).run()
        assert app.corner == pascal_corner(8, 8)
        assert rep.recoveries == 1
        assert rep.final_alive_places == 2
        assert rep.completions >= rep.active_vertices

    def test_place_zero_fault_unrecoverable(self):
        with pytest.raises(PlaceZeroDeadError):
            DPX10Runtime(
                SumApp(),
                GridDag(6, 6),
                DPX10Config(nplaces=2),
                fault_plans=[FaultPlan(0, at_fraction=0.2)],
            ).run()

    def test_two_sequential_faults(self):
        app = SumApp()
        rep = DPX10Runtime(
            app,
            GridDag(8, 8),
            DPX10Config(nplaces=4, tile_shape=(1, 1)),
            fault_plans=[
                FaultPlan(2, at_fraction=0.25),
                FaultPlan(3, at_fraction=0.75),
            ],
        ).run()
        assert app.corner == pascal_corner(8, 8)
        assert rep.recoveries == 2
        assert rep.final_alive_places == 2

    def test_restore_copy_transfers_results(self):
        # restore_manner is a per-vertex-path knob
        ref = dict(nplaces=3, tile_shape=(1, 1))
        cfg_discard = DPX10Config(restore_manner="discard", **ref)
        cfg_copy = DPX10Config(restore_manner="copy", **ref)
        plans = [FaultPlan(2, at_fraction=0.6)]
        app1 = SumApp()
        rep_d = DPX10Runtime(app1, GridDag(9, 9), cfg_discard, plans).run()
        app2 = SumApp()
        rep_c = DPX10Runtime(app2, GridDag(9, 9), cfg_copy, plans).run()
        assert app1.corner == app2.corner == pascal_corner(9, 9)
        # copying preserved vertices means fewer recomputations
        assert rep_c.recomputed <= rep_d.recomputed
        stats_c = rep_c.recovery_stats[0]
        stats_d = rep_d.recovery_stats[0]
        assert stats_c.copied > 0 and stats_c.discarded == 0
        assert stats_d.discarded > 0 and stats_d.copied == 0


class TestValidateFlag:
    def test_broken_pattern_caught_when_enabled(self):
        class BrokenDag(GridDag):
            def get_anti_dependency(self, i, j):
                return []  # never notifies anyone

        with pytest.raises(PatternError):
            DPX10Runtime(
                SumApp(), BrokenDag(3, 3), DPX10Config(validate=True)
            ).run()

    def test_broken_pattern_deadlocks_inline_without_validate(self):
        class BrokenDag(GridDag):
            def get_anti_dependency(self, i, j):
                return []

        with pytest.raises(PatternError, match="deadlock"):
            DPX10Runtime(
                SumApp(), BrokenDag(3, 3), DPX10Config(tile_shape=(1, 1))
            ).run()


class TestAppFinishedContract:
    def test_app_finished_sees_all_results(self):
        seen = {}

        class Collector(SumApp):
            def app_finished(self, dag):
                for i in range(dag.height):
                    for j in range(dag.width):
                        seen[(i, j)] = int(dag.get_vertex(i, j).get_result())

        DPX10Runtime(Collector(), GridDag(3, 3), DPX10Config(nplaces=2)).run()
        assert len(seen) == 9
        assert seen[(0, 0)] == 1 and seen[(2, 2)] == pascal_corner(3, 3)
