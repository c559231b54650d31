"""Tests for disk-spilled vertex values (the paper's future-work item)."""

import glob
import os

import numpy as np

from repro.apgas.failure import FaultPlan
from repro.apgas.place import PlaceGroup
from repro.apps.lcs import solve_lcs
from repro.apps.serial import lcs_matrix
from repro.apps.smith_waterman import solve_swlag
from repro.core.config import DPX10Config
from repro.core.vertex_store import build_stores
from repro.dist.dist import Dist
from repro.patterns.diagonal import DiagonalDag

X, Y = "ACGTACGGTACG", "TACGATCGGG"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])


class TestSpilledStore:
    def test_values_are_memmapped(self, tmp_path):
        group = PlaceGroup(2)
        dag = DiagonalDag(6, 6)
        dist = Dist.block_rows(dag.region, [0, 1])
        stores = build_stores(
            group, dag, dist, np.int64, lambda i, j: None, spill_dir=str(tmp_path)
        )
        assert all(s.spilled for s in stores.values())
        assert isinstance(stores[0].values, np.memmap)
        files = glob.glob(os.path.join(tmp_path, "dpx10-place*.npy"))
        assert len(files) == 2

    def test_object_dtype_stays_in_ram(self, tmp_path):
        group = PlaceGroup(1)
        dag = DiagonalDag(3, 3)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(
            group, dag, dist, None, lambda i, j: None, spill_dir=str(tmp_path)
        )
        assert not stores[0].spilled
        assert glob.glob(os.path.join(tmp_path, "*.npy")) == []

    def test_roundtrip_through_disk(self, tmp_path):
        group = PlaceGroup(1)
        dag = DiagonalDag(4, 4)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(
            group, dag, dist, np.int64, lambda i, j: None, spill_dir=str(tmp_path)
        )
        s = stores[0]
        s.set_result(2, 3, 777)
        s.mark_finished(2, 3)
        assert s.get_result(2, 3) == 777

    def test_file_removed_on_gc(self, tmp_path):
        import gc

        group = PlaceGroup(1)
        dag = DiagonalDag(3, 3)
        dist = Dist.block_rows(dag.region, [0])
        stores = build_stores(
            group, dag, dist, np.int64, lambda i, j: None, spill_dir=str(tmp_path)
        )
        assert len(glob.glob(os.path.join(tmp_path, "*.npy"))) == 1
        group[0].pop("vertex_store")  # drop the place's reference too
        del stores
        gc.collect()
        assert glob.glob(os.path.join(tmp_path, "*.npy")) == []


class TestSpilledRuns:
    # the per-place vertex stores are what spills a file per place: that
    # is the per-vertex path (tiled runs memory-map one plane, see
    # test_plane.py)
    def test_lcs_answer_unchanged(self, tmp_path):
        cfg = DPX10Config(nplaces=3, spill_dir=str(tmp_path), tile_shape=(1, 1))
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT

    def test_threaded_with_spill(self, tmp_path):
        cfg = DPX10Config(
            nplaces=3, engine="threaded", spill_dir=str(tmp_path), tile_shape=(1, 1)
        )
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT

    def test_recovery_with_spill(self, tmp_path):
        cfg = DPX10Config(nplaces=4, spill_dir=str(tmp_path), tile_shape=(1, 1))
        app, rep = solve_lcs(
            X, Y, cfg, fault_plans=[FaultPlan(2, at_fraction=0.5)]
        )
        assert app.length == EXPECT
        assert rep.recoveries == 1

    def test_object_valued_app_ignores_spill(self, tmp_path):
        # SWLAG vertices are (H, E, F) tuples -> object dtype -> RAM
        cfg = DPX10Config(nplaces=2, spill_dir=str(tmp_path), tile_shape=(1, 1))
        app, _ = solve_swlag("ACGTA", "ACTGA", cfg)
        assert app.best_score is not None
        assert glob.glob(os.path.join(tmp_path, "*.npy")) == []
