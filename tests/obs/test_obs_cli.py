"""End-to-end tests for ``python -m repro obs`` and run-level metrics.

The faithfulness contract: the post-mortem summary is rendered purely
from exported data, and must agree with the live ``RunReport``.
"""

import json
import re

import pytest

from repro.__main__ import main
from repro.apps.lcs import solve_lcs
from repro.core.config import DPX10Config
from repro.obs.dashboard import LiveDashboard, summary_text
from repro.obs.export import load_chrome_trace
from repro.obs.metrics import MetricsRegistry, by_label, scalar

X, Y = "ABCBDABABCBDAB", "BDCABABDCABA"


class TestRunMetrics:
    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_report_metrics_match_legacy_fields(self, engine):
        cfg = DPX10Config(nplaces=3, engine=engine, metrics=True)
        _, rep = solve_lcs(X, Y, cfg)
        snap = rep.metrics
        assert snap is not None
        assert scalar(snap, "dpx10_completions_total") == rep.completions
        assert scalar(snap, "dpx10_cache_hits_total") == rep.cache_hits
        assert scalar(snap, "dpx10_cache_misses_total") == rep.cache_misses
        assert scalar(snap, "dpx10_net_messages_total") == rep.network_messages
        assert scalar(snap, "dpx10_net_bytes_total") == rep.network_bytes
        assert by_label(snap, "dpx10_vertices_computed_total", "place") == {
            str(p): n for p, n in rep.per_place_executed.items()
        }
        assert scalar(snap, "dpx10_places_alive") == rep.final_alive_places
        assert scalar(snap, "dpx10_run_wall_seconds") == pytest.approx(
            rep.wall_time, abs=1e-3
        )

    def test_metrics_off_by_default(self):
        _, rep = solve_lcs(X, Y, DPX10Config(nplaces=2))
        assert rep.metrics is None

    def test_injected_registry_is_used(self):
        reg = MetricsRegistry()
        cfg = DPX10Config(nplaces=2, metrics_registry=reg)
        _, rep = solve_lcs(X, Y, cfg)
        assert scalar(reg.collect(), "dpx10_completions_total") == rep.completions

    def test_tiled_run_records_tile_and_halo_metrics(self):
        cfg = DPX10Config(
            nplaces=2, engine="threaded", tile_shape=(4, 4), metrics=True
        )
        _, rep = solve_lcs(X, Y, cfg)
        snap = rep.metrics
        assert scalar(snap, "dpx10_tiles_executed_total") > 0
        fetches = scalar(snap, "dpx10_halo_fetches_total")
        hist = snap["dpx10_halo_fetch_bytes"]["values"][0][1]
        assert hist["count"] == fetches > 0

    def test_mp_engine_merges_worker_snapshots(self):
        cfg = DPX10Config(nplaces=2, engine="mp", metrics=True)
        _, rep = solve_lcs(X, Y, cfg)
        snap = rep.metrics
        assert scalar(snap, "dpx10_completions_total") == rep.completions
        cells = by_label(snap, "dpx10_mp_worker_cells_total", "place")
        assert sum(cells.values()) == rep.completions
        assert scalar(snap, "dpx10_mp_worker_compute_seconds_total") > 0

    def test_recovery_metrics(self):
        from repro.apgas.failure import FaultPlan

        cfg = DPX10Config(nplaces=3, metrics=True)
        _, rep = solve_lcs(X, Y, cfg)
        total = rep.active_vertices
        cfg = DPX10Config(nplaces=3, metrics=True)
        _, rep = solve_lcs(
            X, Y, cfg, fault_plans=[FaultPlan(place_id=2, after_completions=total // 2)]
        )
        assert rep.recoveries == 1
        snap = rep.metrics
        assert scalar(snap, "dpx10_recoveries_total") == 1
        hist = snap["dpx10_recovery_seconds"]["values"][0][1]
        assert hist["count"] == 1
        actions = by_label(snap, "dpx10_recovery_cells_total", "action")
        assert actions.get("preserved", 0) + actions.get("discarded", 0) > 0


class TestSummaryFaithfulness:
    def test_summary_matches_report(self, tmp_path):
        cfg = DPX10Config(
            nplaces=3,
            engine="threaded",
            trace=True,
            metrics=True,
            tile_shape=(1, 1),  # the cache line needs the per-vertex path
        )
        _, rep = solve_lcs(X, Y, cfg)
        path = str(tmp_path / "trace.json")
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, rep.trace, metrics=rep.metrics)
        trace, metrics = load_chrome_trace(path)
        text = summary_text(trace, metrics)
        # per-place utilization recomputed from the exported events matches
        # the live trace's analysis
        for place, frac in rep.trace.utilization().items():
            m = re.search(rf"place\s+{place} \|[#.]+\|\s+([0-9.]+)%", text)
            assert m, f"place {place} missing from summary"
            assert float(m.group(1)) == pytest.approx(frac * 100, abs=0.1)
        # cache hit rate string matches the report's
        m = re.search(r"\((\d+\.\d)% hit rate\)", text)
        assert m and float(m.group(1)) == pytest.approx(
            rep.cache_hit_rate * 100, abs=0.05
        )


class TestCli:
    def test_obs_run_exports_and_summary(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.json")
        jsonl_path = str(tmp_path / "t.jsonl")
        prom_path = str(tmp_path / "m.txt")
        rc = main(
            [
                "obs", "run", "--app", "lcs", "--size", "12",
                "--engine", "inline", "--export", trace_path,
                "--jsonl", jsonl_path, "--metrics-out", prom_path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "run summary" in out and "per-place utilization" in out
        doc = json.load(open(trace_path))
        assert doc["otherData"]["format"] == "dpx10-trace"
        assert "dpx10_completions_total" in open(prom_path).read()

        rc = main(["obs", "summary", trace_path])
        assert rc == 0
        assert "run summary" in capsys.readouterr().out
        rc = main(["obs", "summary", jsonl_path])
        assert rc == 0
        assert "run summary" in capsys.readouterr().out

    def test_obs_run_tiled(self, capsys):
        rc = main(
            ["obs", "run", "--app", "sw", "--size", "24", "--tile", "8x8"]
        )
        assert rc == 0
        assert "best local score" in capsys.readouterr().out

    def test_schema_script_accepts_export(self, tmp_path):
        import subprocess
        import sys as _sys

        trace_path = str(tmp_path / "t.json")
        assert main(
            ["obs", "run", "--app", "lcs", "--size", "10",
             "--engine", "inline", "--export", trace_path]
        ) == 0
        proc = subprocess.run(
            [_sys.executable, "scripts/check_trace_schema.py", trace_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_schema_script_checks_tile_events_never_overlap(self, tmp_path):
        import subprocess
        import sys as _sys

        # inline tiles sweep a place's ready list per call: the call's
        # span is split between them, so a place's events tile its time
        trace_path = tmp_path / "t.json"
        assert main(
            ["obs", "run", "--app", "sw", "--size", "64", "--places", "4",
             "--engine", "inline", "--tile", "16x16", "--export", str(trace_path)]
        ) == 0

        def check():
            return subprocess.run(
                [_sys.executable, "scripts/check_trace_schema.py", str(trace_path)],
                capture_output=True, text=True,
            )

        proc = check()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(trace_path.read_text())
        mine = sorted(
            (e for e in doc["traceEvents"] if e.get("cat") == "tile" and e["tid"] == 0),
            key=lambda e: e["ts"],
        )
        mine[1]["ts"] = mine[0]["ts"] + mine[0]["dur"] / 2
        trace_path.write_text(json.dumps(doc))
        proc = check()
        assert proc.returncode == 1 and "overlapping tiles" in proc.stdout

    def test_schema_script_rejects_malformed(self, tmp_path):
        import subprocess
        import sys as _sys

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        proc = subprocess.run(
            [_sys.executable, "scripts/check_trace_schema.py", str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout


class TestLiveDashboard:
    def test_dashboard_refreshes_during_run(self):
        import io

        reg = MetricsRegistry()
        stream = io.StringIO()
        dash = LiveDashboard(reg, stream=stream, interval=0.01, ansi=False)
        cfg = DPX10Config(nplaces=2, engine="threaded", metrics_registry=reg)
        with dash:
            solve_lcs(X * 4, Y * 4, cfg)
        assert dash.frames >= 1
        out = stream.getvalue()
        assert "progress" in out and "cache" in out

    def test_final_frame_shows_closing_numbers(self):
        import io

        reg = MetricsRegistry()
        stream = io.StringIO()
        cfg = DPX10Config(nplaces=2, metrics_registry=reg)
        with LiveDashboard(reg, stream=stream, interval=5.0, ansi=False):
            _, rep = solve_lcs(X, Y, cfg)
        last_frame = stream.getvalue().strip().rsplit("progress", 1)[-1]
        assert f"{rep.completions}/{rep.active_vertices}" in last_frame
