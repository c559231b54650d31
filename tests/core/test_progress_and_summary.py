"""Tests for the progress callback and RunReport.summary()."""

import pytest

from repro.apgas.failure import FaultPlan
from repro.apps.lcs import solve_lcs
from repro.core.config import DPX10Config
from repro.errors import ConfigurationError

X, Y = "ABCBDABACGT", "BDCABAACGG"


class TestProgressCallback:
    def test_called_at_interval(self):
        seen = []
        cfg = DPX10Config(
            nplaces=2,
            on_progress=lambda done, total: seen.append((done, total)),
            progress_interval=25,
            tile_shape=(1, 1),
        )
        _, rep = solve_lcs(X, Y, cfg)
        total = rep.active_vertices
        assert seen == [(k, total) for k in range(25, total + 1, 25)]

    def test_disabled_by_default(self):
        seen = []
        cfg = DPX10Config(nplaces=2, on_progress=lambda d, t: seen.append(d))
        solve_lcs(X, Y, cfg)  # interval stays 0 -> never called
        assert seen == []

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            DPX10Config(progress_interval=-5)

    def test_completions_exceed_total_under_fault(self):
        seen = []
        cfg = DPX10Config(
            nplaces=3,
            on_progress=lambda d, t: seen.append((d, t)),
            progress_interval=10,
        )
        solve_lcs(X, Y, cfg, fault_plans=[FaultPlan(2, at_fraction=0.8)])
        assert seen, "progress should fire"
        # with recomputation, the last reported count can pass the total
        done, total = seen[-1]
        assert done >= total - 10


class TestSummary:
    def test_contains_key_lines(self):
        _, rep = solve_lcs(X, Y, DPX10Config(nplaces=3))
        text = rep.summary()
        assert "vertices:" in text
        assert "network:" in text
        assert "cache:" in text
        assert "wall time:" in text
        assert "snapshots" not in text  # not in snapshot mode

    def test_mentions_recomputation_and_snapshots(self):
        cfg = DPX10Config(
            nplaces=3, ft_mode="snapshot", snapshot_interval=30, tile_shape=(1, 1)
        )
        _, rep = solve_lcs(X, Y, cfg, fault_plans=[FaultPlan(1, at_fraction=0.5)])
        text = rep.summary()
        assert "recomputed" in text
        assert "snapshots:" in text
