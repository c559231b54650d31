"""Tests for the periodic-snapshot FT mode (the baseline of section VI-D).

DPX10's argument: snapshots copy large intermediate state repeatedly and
roll back healthy places' progress; the new recovery keeps surviving
results in place. Both modes must produce the oracle answer.
"""

import pytest

from repro.apgas.failure import FaultPlan
from repro.apps.lcs import solve_lcs
from repro.apps.serial import lcs_matrix
from repro.core.config import DPX10Config
from repro.errors import ConfigurationError

X, Y = "ACGTACGGTACGATCGAT", "TACGATCGGGACGTGG"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])
PLANS = [FaultPlan(2, at_fraction=0.6)]


class TestConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            DPX10Config(ft_mode="raid")
        with pytest.raises(ConfigurationError):
            DPX10Config(snapshot_interval=-1)

    def test_default_is_paper_mechanism(self):
        assert DPX10Config().ft_mode == "recovery"


class TestSnapshotMode:
    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_answer_preserved(self, engine):
        cfg = DPX10Config(
            nplaces=4, engine=engine, ft_mode="snapshot", snapshot_interval=50
        )
        app, rep = solve_lcs(X, Y, cfg, fault_plans=PLANS)
        assert app.length == EXPECT
        assert rep.recoveries == 1
        assert rep.recovery_stats[0].mechanism == "snapshot"

    def test_snapshots_are_taken_periodically(self):
        cfg = DPX10Config(
            nplaces=3, ft_mode="snapshot", snapshot_interval=40, tile_shape=(1, 1)
        )
        _, rep = solve_lcs(X, Y, cfg)
        # initial + one per 40 completions
        vertices = (len(X) + 1) * (len(Y) + 1)
        assert rep.snapshots_taken == 1 + vertices // 40
        assert rep.snapshot_cells_copied > 0

    def test_no_snapshots_in_recovery_mode(self):
        _, rep = solve_lcs(X, Y, DPX10Config(nplaces=3))
        assert rep.snapshots_taken == 0
        assert rep.snapshot_cells_copied == 0

    def test_rollback_loses_progress_since_snapshot(self):
        # a sparse snapshot interval forces a big rollback: more vertices
        # must be recomputed than under the paper's recovery
        common = dict(nplaces=4, tile_shape=(1, 1))
        cfg_snap = DPX10Config(
            ft_mode="snapshot", snapshot_interval=200, **common
        )
        cfg_rec = DPX10Config(ft_mode="recovery", **common)
        _, rep_snap = solve_lcs(X, Y, cfg_snap, fault_plans=PLANS)
        _, rep_rec = solve_lcs(X, Y, cfg_rec, fault_plans=PLANS)
        assert rep_snap.recomputed > rep_rec.recomputed

    def test_interval_zero_rolls_back_to_start(self):
        cfg = DPX10Config(nplaces=4, ft_mode="snapshot", snapshot_interval=0)
        app, rep = solve_lcs(X, Y, cfg, fault_plans=PLANS)
        assert app.length == EXPECT
        stats = rep.recovery_stats[0]
        assert stats.restored_from_snapshot == 0  # only the empty checkpoint
        # every vertex completed before the fault is recomputed
        assert rep.recomputed >= stats.lost_on_dead > 0

    def test_denser_snapshots_less_recompute_more_copying(self):
        results = {}
        for interval in (30, 150):
            cfg = DPX10Config(
                nplaces=4,
                ft_mode="snapshot",
                snapshot_interval=interval,
                tile_shape=(1, 1),
            )
            _, rep = solve_lcs(X, Y, cfg, fault_plans=PLANS)
            results[interval] = rep
        assert results[30].recomputed <= results[150].recomputed
        assert results[30].snapshot_cells_copied > results[150].snapshot_cells_copied

    def test_place_zero_still_fatal(self):
        from repro.errors import PlaceZeroDeadError

        cfg = DPX10Config(nplaces=3, ft_mode="snapshot", snapshot_interval=20)
        with pytest.raises(PlaceZeroDeadError):
            solve_lcs(X, Y, cfg, fault_plans=[FaultPlan(0, at_fraction=0.5)])
