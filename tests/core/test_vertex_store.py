"""Tests for the per-place vertex store."""

import numpy as np
import pytest

from repro.apgas.place import PlaceGroup
from repro.core.vertex_store import build_stores
from repro.dist.dist import Dist
from repro.errors import DeadPlaceException, DPX10Error
from repro.patterns.diagonal import DiagonalDag
from repro.patterns.interval import IntervalDag


def make_store(nplaces=2, height=4, width=4, dag_cls=DiagonalDag, dtype=np.int64):
    group = PlaceGroup(nplaces)
    dag = dag_cls(height, width)
    dist = Dist.block_rows(dag.region, list(range(nplaces)))
    stores = build_stores(group, dag, dist, dtype, lambda i, j: None)
    return group, dag, dist, stores


class TestInit:
    def test_coords_cover_partition(self):
        _, _, dist, stores = make_store()
        assert sorted(stores[0].coords) == sorted(dist.owned_coords(0))
        assert stores[0].size == 8

    def test_indegrees_match_pattern(self):
        _, dag, _, stores = make_store()
        s = stores[0]
        assert s.indegree[s.slot(0, 0)] == 0  # corner seed
        assert s.indegree[s.slot(0, 1)] == 1  # depends on (0,0)
        assert s.indegree[s.slot(1, 1)] == 3

    def test_inactive_cells_born_finished(self):
        group = PlaceGroup(1)
        dag = IntervalDag(4, 4)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(group, dag, dist, np.int64, lambda i, j: None)
        s = stores[0]
        assert s.is_finished(2, 0)  # lower triangle inactive
        assert not s.is_finished(0, 0)
        assert s.active_count == 10  # upper triangle of 4x4

    def test_inactive_init_value_object_dtype(self):
        group = PlaceGroup(1)
        dag = IntervalDag(3, 3)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(group, dag, dist, None, lambda i, j: f"init{i}{j}")
        assert stores[0].get_result(1, 0) == "init10"

    def test_zero_indegree_unfinished(self):
        _, _, _, stores = make_store()
        assert stores[0].zero_indegree_unfinished() == [(0, 0)]


class TestStateTransitions:
    def test_result_lifecycle(self):
        _, _, _, stores = make_store()
        s = stores[0]
        with pytest.raises(DPX10Error, match="not finished"):
            s.get_result(0, 0)
        s.set_result(0, 0, 7)
        s.mark_finished(0, 0)
        assert s.get_result(0, 0) == 7
        assert s.finished_active == 1

    def test_mark_finished_idempotent_for_counter(self):
        _, _, _, stores = make_store()
        s = stores[0]
        s.set_result(0, 0, 1)
        s.mark_finished(0, 0)
        s.mark_finished(0, 0)
        assert s.finished_active == 1

    def test_dec_indegree_signals_ready(self):
        _, _, _, stores = make_store()
        s = stores[0]
        assert not s.dec_indegree(1, 1)  # 3 -> 2
        assert not s.dec_indegree(1, 1)  # 2 -> 1
        assert s.dec_indegree(1, 1)  # 1 -> 0: schedulable

    def test_all_done(self):
        _, _, _, stores = make_store(nplaces=1, height=2, width=2)
        s = stores[0]
        assert not s.all_done()
        for c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            s.set_result(*c, 1)
            s.mark_finished(*c)
        assert s.all_done()

    def test_finished_items_only_active_finished(self):
        group = PlaceGroup(1)
        dag = IntervalDag(3, 3)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(group, dag, dist, np.int64, lambda i, j: None)
        s = stores[0]
        s.set_result(0, 0, 5)
        s.mark_finished(0, 0)
        items = dict(s.finished_items())
        assert items == {(0, 0): 5}  # inactive finished cells excluded


class TestDeadPlace:
    def test_access_after_kill_raises(self):
        group, _, _, stores = make_store()
        group.kill(0)
        s = stores[0]
        for op in (
            lambda: s.get_result(0, 0),
            lambda: s.set_result(0, 0, 1),
            lambda: s.mark_finished(0, 0),
            lambda: s.dec_indegree(1, 1),
            lambda: s.all_done(),
            lambda: s.is_finished(0, 0),
            lambda: list(s.finished_items()),
        ):
            with pytest.raises(DeadPlaceException):
                op()

    def test_other_place_unaffected(self):
        group, _, _, stores = make_store()
        group.kill(0)
        stores[1].set_result(2, 0, 9)
        stores[1].mark_finished(2, 0)
        assert stores[1].get_result(2, 0) == 9


class TestDtypes:
    def test_typed_array_for_int_dtype(self):
        _, _, _, stores = make_store(dtype=np.int64)
        assert stores[0].values.dtype == np.int64

    def test_object_array_for_none(self):
        _, _, _, stores = make_store(dtype=None)
        s = stores[0]
        assert s.values.dtype == object
        s.set_result(0, 0, (1, 2, 3))
        s.mark_finished(0, 0)
        assert s.get_result(0, 0) == (1, 2, 3)


class TestBlockAPIs:
    """Spill files and recovery salvage (the per-vertex path's bulk views)."""

    def test_block_roundtrip_spilled(self, tmp_path):
        group = PlaceGroup(1)
        dag = DiagonalDag(4, 4)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(
            group, dag, dist, np.int64, lambda i, j: None,
            spill_dir=str(tmp_path),
        )
        s = stores[0]
        assert s.spilled
        coords = [(0, 0), (0, 1), (1, 0)]
        for c, v in zip(coords, [7, 8, 9]):
            s.set_result(*c, v)
            s.mark_finished(*c)
        assert [s.get_result(*c) for c in coords] == [7, 8, 9]
        assert dict(s.finished_items()) == dict(zip(coords, [7, 8, 9]))
        # the values really live in the memmap file
        assert isinstance(s.values, np.memmap)

    def test_open_spill_creates_npy_memmap(self, tmp_path):
        group = PlaceGroup(1)
        dag = DiagonalDag(3, 3)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(
            group, dag, dist, np.int64, lambda i, j: None,
            spill_dir=str(tmp_path),
        )
        s = stores[0]
        files = list(tmp_path.glob("dpx10-place0-*.npy"))
        assert len(files) == 1
        assert s._spill_path == str(files[0])

    def test_finished_items_after_partial_recovery(self):
        """finished_items drives recovery salvage: only the surviving
        place's finished active cells are re-homed."""
        from repro.apgas.failure import FaultPlan
        from repro.apps.smith_waterman import solve_sw
        from repro.core.config import DPX10Config

        a, b = "ACGTACGTACGT", "ACGTTACGTAC"
        base_cfg = DPX10Config(nplaces=3, engine="inline", tile_shape=(1, 1))
        base, _ = solve_sw(a, b, base_cfg)
        cfg = DPX10Config(nplaces=3, engine="inline", tile_shape=(1, 1))
        app, report = solve_sw(
            a, b, cfg, fault_plans=[FaultPlan(1, after_completions=40)]
        )
        assert report.recoveries == 1
        assert app.best_score == base.best_score
