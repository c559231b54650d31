"""Tests for execution tracing."""

import threading

import pytest

from repro.apps.lcs import solve_lcs
from repro.core.config import DPX10Config
from repro.core.trace import ExecutionTrace, Span, TraceEvent

X, Y = "ABCBDAB", "BDCABA"


class TestExecutionTrace:
    def test_empty_trace(self):
        t = ExecutionTrace()
        assert len(t) == 0
        assert t.span == 0.0
        assert t.utilization() == {}
        assert t.render_gantt() == "(empty trace)"
        assert t.spans == []
        assert t.phase_totals() == {}
        assert t.completion_profile(buckets=4) == [0, 0, 0, 0]
        assert t.executed_per_place() == {}

    def test_record_and_span(self):
        t = ExecutionTrace()
        t.record(TraceEvent(0, 0, 0, 0, 1.0, 2.0))
        t.record(TraceEvent(0, 1, 0, 1, 2.0, 4.0))
        assert len(t) == 2
        assert t.span == pytest.approx(3.0)

    def test_utilization(self):
        t = ExecutionTrace()
        t.record(TraceEvent(0, 0, 0, 0, 0.0, 3.0))
        t.record(TraceEvent(0, 1, 0, 1, 0.0, 1.5))
        util = t.utilization()
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(0.5)

    def test_completion_profile_buckets(self):
        t = ExecutionTrace()
        for k in range(10):
            t.record(TraceEvent(0, k, 0, 0, k * 1.0, k + 0.5))
        profile = t.completion_profile(buckets=5)
        assert len(profile) == 5
        assert sum(profile) == 10

    def test_executed_per_place(self):
        t = ExecutionTrace()
        t.record(TraceEvent(0, 0, 0, 1, 0, 1))
        t.record(TraceEvent(0, 1, 0, 1, 0, 1))
        t.record(TraceEvent(0, 2, 0, 0, 0, 1))
        assert t.executed_per_place() == {0: 1, 1: 2}

    def test_gantt_contains_place_rows(self):
        t = ExecutionTrace()
        t.record(TraceEvent(0, 0, 0, 0, 0.0, 1.0))
        t.record(TraceEvent(0, 1, 0, 2, 0.5, 1.0))
        out = t.render_gantt(width=20)
        assert "place   0" in out and "place   2" in out
        assert "#" in out

    def test_gantt_bucket_boundary_no_bleed(self):
        # an event ending exactly on a column boundary must not paint the
        # next column: with width=10 over span [0, 1], [0, 0.5) is columns
        # 0-4 and column 5 belongs to the second event only
        t = ExecutionTrace()
        t.record(TraceEvent(0, 0, 0, 0, 0.0, 0.5))
        t.record(TraceEvent(0, 1, 0, 1, 0.5, 1.0))
        rows = t.render_gantt(width=10).splitlines()[1:]
        row0 = rows[0].split("|")[1]
        row1 = rows[1].split("|")[1]
        assert row0 == "#####     "
        assert row1 == "     #####"

    def test_gantt_zero_duration_event_paints_one_column(self):
        t = ExecutionTrace()
        t.record(TraceEvent(0, 0, 0, 0, 0.0, 1.0))
        t.record(TraceEvent(0, 1, 0, 1, 0.5, 0.5))
        rows = t.render_gantt(width=10).splitlines()[1:]
        assert rows[1].split("|")[1] == "     #    "

    def test_concurrent_record_from_worker_threads(self):
        t = ExecutionTrace()
        per_thread, nthreads = 250, 8

        def work(place):
            for k in range(per_thread):
                t.record(TraceEvent(place, k, place, place, 0.0, 1.0))
                if k % 50 == 0:
                    t.record_span(Span(f"phase-{place}", 0.0, 0.1, place=place))

        threads = [threading.Thread(target=work, args=(p,)) for p in range(nthreads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(t) == per_thread * nthreads
        assert len(t.spans) == nthreads * (per_thread // 50)
        assert sum(t.executed_per_place().values()) == per_thread * nthreads


class TestSpans:
    def test_phase_records_span(self):
        t = ExecutionTrace()
        with t.phase("partition"):
            pass
        with t.phase("halo fetch", category="halo", place=2):
            pass
        spans = t.spans
        assert [s.name for s in spans] == ["partition", "halo fetch"]
        assert spans[0].category == "phase" and spans[0].place == -1
        assert spans[1].category == "halo" and spans[1].place == 2
        assert all(s.end >= s.start for s in spans)
        # spans stay out of the event list: len() keeps meaning events
        assert len(t) == 0

    def test_phase_records_span_on_exception(self):
        t = ExecutionTrace()
        with pytest.raises(RuntimeError):
            with t.phase("execute"):
                raise RuntimeError("boom")
        assert [s.name for s in t.spans] == ["execute"]

    def test_phase_totals_sums_by_name(self):
        t = ExecutionTrace()
        t.record_span(Span("execute", 0.0, 2.0))
        t.record_span(Span("execute", 3.0, 4.0))
        t.record_span(Span("partition", 0.0, 0.5))
        totals = t.phase_totals()
        assert totals["execute"] == pytest.approx(3.0)
        assert totals["partition"] == pytest.approx(0.5)

    def test_runtime_records_phase_spans(self):
        cfg = DPX10Config(nplaces=2, trace=True)
        _, rep = solve_lcs(X, Y, cfg)
        names = {s.name for s in rep.trace.spans}
        assert {"partition", "schedule", "execute"} <= names


class TestRuntimeIntegration:
    def test_trace_off_by_default(self):
        _, rep = solve_lcs(X, Y, DPX10Config(nplaces=2))
        assert rep.trace is None

    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_trace_covers_every_vertex(self, engine):
        # one event per cell is the per-vertex path; tiles log one each
        cfg = DPX10Config(nplaces=2, engine=engine, trace=True, tile_shape=(1, 1))
        _, rep = solve_lcs(X, Y, cfg)
        assert rep.trace is not None
        assert len(rep.trace) == rep.completions
        coords = {(e.i, e.j) for e in rep.trace.events}
        assert len(coords) == rep.active_vertices

    def test_trace_places_match_report(self):
        cfg = DPX10Config(nplaces=3, trace=True, tile_shape=(1, 1))
        _, rep = solve_lcs(X, Y, cfg)
        assert rep.trace.executed_per_place() == rep.per_place_executed

    def test_utilization_bounded(self):
        cfg = DPX10Config(nplaces=2, trace=True)
        _, rep = solve_lcs(X, Y, cfg)
        for frac in rep.trace.utilization().values():
            assert 0.0 < frac <= 1.0
