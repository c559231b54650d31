"""Miscellaneous edge cases across modules."""

import pytest

from repro.apgas.activity import Activity
from repro.apgas.runtime import GlobalRuntime
from repro.apps.lcs import solve_lcs
from repro.core.config import DPX10Config
from repro.core.trace import ExecutionTrace


class TestActivityIds:
    def test_monotonically_unique(self):
        a = Activity(0, lambda: None)
        b = Activity(0, lambda: None)
        assert b.id > a.id

    def test_run_returns_value(self):
        assert Activity(0, lambda x: x * 2, (21,)).run() == 42


class TestGlobalRuntimeContext:
    def test_context_manager_shuts_down(self):
        with GlobalRuntime(2, engine="threaded") as rt:
            out = []
            with rt.finish():
                rt.async_at(1, out.append, 1)
            assert out == [1]
        # engine closed: submitting now must fail
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            rt.async_at(0, lambda: None)


class TestTraceEdges:
    def test_zero_buckets(self):
        assert ExecutionTrace().completion_profile(0) == []

    def test_profile_with_single_event(self):
        from repro.core.trace import TraceEvent

        t = ExecutionTrace()
        t.record(TraceEvent(0, 0, 0, 0, 1.0, 1.0))  # zero-duration event
        assert sum(t.completion_profile(4)) == 1


class TestConfigCombos:
    def test_mp_supports_trace(self):
        cfg = DPX10Config(nplaces=2, engine="mp", trace=True)
        _, rep = solve_lcs("ABCD", "BCDA", cfg)
        # workers stream timing envelopes back to the master, which
        # re-stamps them onto its own timeline
        assert rep.trace is not None and rep.trace.events

    def test_spill_plus_snapshot_ft(self, tmp_path):
        from repro.apgas.failure import FaultPlan

        cfg = DPX10Config(
            nplaces=3,
            spill_dir=str(tmp_path),
            ft_mode="snapshot",
            snapshot_interval=25,
        )
        from repro.apps.serial import lcs_matrix

        x, y = "ABCBDABAC", "BDCABAACG"
        app, rep = solve_lcs(
            x, y, cfg, fault_plans=[FaultPlan(1, at_fraction=0.5)]
        )
        assert app.length == lcs_matrix(x, y)[-1, -1]
        assert rep.recoveries == 1

    def test_static_schedule_with_trace_and_progress(self):
        seen = []
        cfg = DPX10Config(
            nplaces=2,
            trace=True,
            on_progress=lambda d, t: seen.append(d),
            progress_interval=20,
            tile_shape=(1, 1),
        )
        app, rep = solve_lcs("ABCBDAB", "BDCABA", cfg)
        assert app.length == 4
        assert len(rep.trace) == rep.completions
        assert seen


class TestCSVEdges:
    def test_missing_keys_render_empty(self):
        from repro.bench.sweep import to_csv

        csv = to_csv([{"a": 1, "b": 2}, {"a": 3}])
        lines = csv.strip().split("\n")
        assert lines[2] == "3,"


class TestSimEdges:
    def test_parallel_efficiency_unit_for_empty(self):
        from repro.sim.engine import SimResult

        r = SimResult(
            makespan=0.0,
            total_cells=0,
            ntiles=0,
            work_seconds=0.0,
            comm_seconds=0.0,
            nplaces=1,
            workers=1,
        )
        assert r.parallel_efficiency == 1.0
        assert r.place_utilization() == {}
        assert r.completion_profile(3) == [0, 0, 0]
