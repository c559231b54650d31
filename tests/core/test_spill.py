"""Tests for disk-spilled vertex values (the paper's future-work item)."""

import glob
import os

import numpy as np

from repro.apgas.failure import FaultPlan
from repro.apps.lcs import solve_lcs
from repro.apps.serial import lcs_matrix
from repro.apps.smith_waterman import solve_swlag
from repro.core.config import DPX10Config
from repro.core.plane import TilePlane
from repro.patterns.diagonal import DiagonalDag

X, Y = "ACGTACGGTACG", "TACGATCGGG"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])


class TestSpilledStore:
    """Every run's one plane spills through ``TilePlane.allocate(spill_dir=...)``."""

    @staticmethod
    def plane(tmp_path, dtype=np.int64, n=6):
        grid = DiagonalDag(n, n).coarsen(1, 1).grid
        return TilePlane.allocate(grid, dtype, spill_dir=str(tmp_path))

    def test_values_are_memmapped(self, tmp_path):
        plane = self.plane(tmp_path)
        assert isinstance(plane.values, np.memmap)
        assert plane.values.filename.startswith(os.path.join(tmp_path, "dpx10-plane-"))

    def test_object_dtype_stays_in_ram(self, tmp_path):
        plane = self.plane(tmp_path, dtype=None, n=3)
        assert not isinstance(plane.values, np.memmap)
        assert glob.glob(os.path.join(tmp_path, "*.npy")) == []

    def test_roundtrip_through_disk(self, tmp_path):
        plane = self.plane(tmp_path, n=4)
        plane.values[2, 3] = 777
        plane.finished[2, 3] = 1
        assert plane.results()[(2, 3)] == 777
        assert plane.results(copy=True)[(2, 3)] == 777

    def test_file_removed_on_gc(self, tmp_path):
        import gc

        plane = self.plane(tmp_path, n=3)
        # unlinked as soon as it is mapped: the mapping keeps the blocks
        assert glob.glob(os.path.join(tmp_path, "*.npy")) == []
        plane.values[1, 1] = 5
        assert int(plane.values[1, 1]) == 5
        del plane
        gc.collect()
        assert glob.glob(os.path.join(tmp_path, "*.npy")) == []


class TestSpilledRuns:
    # the per-vertex reference spills its one plane like every run
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
