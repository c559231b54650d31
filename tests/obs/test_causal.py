"""The causal model: critical-path validity, waterfall exactness, and the
acceptance audit that attribution explains (>= 95% of) wall-clock time.

The audit runs the exact configuration the issue names — a traced mp_shm
tiled SW 512x512 run — plus cheaper in-process variants, and checks the
two load-bearing properties end to end:

* every instant of every place is attributed to exactly one named
  category (fractions sum to 1.0; the >= 0.95 bar follows a fortiori);
* the critical path is a dependency-respecting chain: consecutive
  events are joined by real (tiled) DAG dependency edges and each
  predecessor finishes before its consumer starts.
"""

import pytest

from repro.core.config import DPX10Config
from repro.core.trace import ExecutionTrace, Span, TraceEvent
from repro.obs.causal import (
    PLACE_CATEGORIES,
    attribution,
    causal_summary,
    classify_span,
    critical_path,
    critical_path_fraction,
    detect_stragglers,
    explain_text,
    diff_text,
    waterfall,
)

#: cross-process stamps are normalized via a wall-clock offset exchange,
#: not a shared monotonic clock; allow this much ordering slack for mp
_MP_CLOCK_SLACK = 5e-3


def _traced_sw(size, engine, tile, nplaces=4, shm=True):
    from repro.apps.smith_waterman import solve_sw
    from repro.util.rng import seeded_rng

    rng = seeded_rng(7, "causal-test", size)
    s1 = "".join("ACGT"[int(k)] for k in rng.integers(0, 4, size=size))
    s2 = "".join("ACGT"[int(k)] for k in rng.integers(0, 4, size=size))
    config = DPX10Config(
        nplaces=nplaces, engine=engine, tile_shape=tile, trace=True, shm=shm
    )
    _, report = solve_sw(s1, s2, config)
    assert report.trace is not None
    return report.trace


def _assert_dependency_chain(trace, slack=0.0):
    path = critical_path(trace)
    assert path, "critical path must not be empty on a traced run"
    offsets = {
        (int(a), int(b))
        for a, b in (
            trace.meta.get("tile_offsets") or trace.meta.get("offsets") or []
        )
    }
    assert offsets, "runtime must stash dependency offsets in trace.meta"

    def key(e):
        return e.tile if e.tile is not None else (e.i, e.j)

    for dep, consumer in zip(path, path[1:]):
        dk, ck = key(dep), key(consumer)
        assert (dk[0] - ck[0], dk[1] - ck[1]) in offsets, (
            f"{dk} -> {ck} is not a dependency edge"
        )
        assert dep.end <= consumer.start + slack, (
            f"dependency {dk} (end={dep.end}) finishes after its consumer "
            f"{ck} (start={consumer.start}) starts"
        )
    return path


class TestCriticalPath:
    def test_threaded_tiled_path_is_dependency_chain(self):
        trace = _traced_sw(64, "threaded", (16, 16))
        path = _assert_dependency_chain(trace)
        # the chain reaches back to the DAG's source corner
        assert path[0].tile == (0, 0)
        # and starts from the latest-finishing event
        assert path[-1].end == max(e.end for e in trace.events)

    def test_per_vertex_path_uses_cell_offsets(self):
        trace = _traced_sw(24, "threaded", (1, 1), nplaces=2)
        assert "offsets" in trace.meta
        _assert_dependency_chain(trace)

    def test_fraction_is_bounded_and_positive(self):
        trace = _traced_sw(64, "threaded", (16, 16))
        frac = critical_path_fraction(trace)
        assert 0.0 < frac <= 1.0

    def test_no_dependency_meta_degenerates_to_longest_event(self):
        trace = ExecutionTrace()
        trace.record(TraceEvent(0, 0, 0, 0, start=0.0, end=1.0))
        trace.record(TraceEvent(0, 1, 0, 0, start=1.0, end=4.0))
        assert critical_path(trace) == [trace.events[1]]


class TestWaterfallExactness:
    def test_place_rows_sum_to_wall_exactly(self):
        trace = _traced_sw(64, "threaded", (16, 16))
        wf = waterfall(trace)
        wall = wf["wall"]
        assert wall > 0
        for place, row in wf["places"].items():
            assert sum(row.values()) == pytest.approx(wall, rel=1e-9), (
                f"place {place} categories do not sum to wall"
            )

    def test_overlapping_spans_never_double_count(self):
        # a synthetic place timeline where halo-wait overlaps compute:
        # the overlap must be attributed once (compute wins by priority)
        trace = ExecutionTrace()
        trace.record(TraceEvent(0, 0, 0, 0, start=0.0, end=6.0))
        trace.record_span(Span("halo fetch", 4.0, 8.0, category="halo", place=0))
        trace.record_span(Span("pace wait", 7.0, 9.0, category="pace", place=0))
        row = waterfall(trace)["places"][0]
        assert row["compute"] == pytest.approx(6.0)
        assert row["halo-wait"] == pytest.approx(2.0)  # only the 6..8 part
        assert row["pacing"] == pytest.approx(1.0)  # only the 8..9 part
        assert row["idle"] == pytest.approx(0.0)
        assert sum(row.values()) == pytest.approx(9.0)

    def test_runtime_row_collects_master_spans(self):
        trace = _traced_sw(64, "threaded", (16, 16))
        runtime = waterfall(trace)["runtime"]
        assert "partition" in runtime and runtime["partition"] > 0
        # the "execute" container wraps everything; counting it would
        # double-attribute, so it must be excluded
        assert classify_span(Span("execute", 0, 1)) is None


class TestAttributionAudit:
    """The acceptance audit: >= 95% of wall-clock attributed by name."""

    def _audit(self, trace):
        attr = attribution(trace)
        assert attr, "traced run must produce an attribution"
        named = {c: f for c, f in attr.items() if c in PLACE_CATEGORIES or c == "idle"}
        assert sum(named.values()) >= 0.95
        assert sum(attr.values()) == pytest.approx(1.0, abs=1e-9)
        for cat, frac in attr.items():
            assert 0.0 <= frac <= 1.0, f"{cat} fraction out of range"

    def test_threaded_tiled(self):
        self._audit(_traced_sw(128, "threaded", (32, 32)))

    def test_inline_tiled(self):
        self._audit(_traced_sw(96, "inline", (32, 32)))

    def test_mp_shm_tiled_512(self):
        trace = _traced_sw(512, "mp", (64, 64), shm=True)
        self._audit(trace)
        _assert_dependency_chain(trace, slack=_MP_CLOCK_SLACK)
        # worker events landed on the master timeline (clock exchange):
        # nothing may start before the run window opens
        wf = waterfall(trace)
        assert wf["wall"] > 0
        assert all(e.start >= wf["t0"] - 1e-9 for e in trace.events)


class TestStragglersPostMortem:
    def test_slow_place_flagged_from_trace(self):
        trace = ExecutionTrace()
        for p in range(4):
            per_tile = 0.05 if p == 2 else 0.005
            for n in range(4):
                t0 = n * 0.06
                trace.record(
                    TraceEvent(
                        p, n, p, p, start=t0, end=t0 + per_tile,
                        tile=(p, n), cells=100,
                    )
                )
        flags = detect_stragglers(trace)
        assert set(flags) == {2}
        assert flags[2] >= 5.0

    def test_uniform_fleet_is_clean(self):
        trace = ExecutionTrace()
        for p in range(4):
            for n in range(4):
                trace.record(
                    TraceEvent(
                        p, n, p, p, start=n * 0.01, end=n * 0.01 + 0.005,
                        tile=(p, n), cells=100,
                    )
                )
        assert detect_stragglers(trace) == {}


class TestHumanSurfaces:
    def test_explain_text_sections(self):
        trace = _traced_sw(64, "threaded", (16, 16))
        text = explain_text(trace)
        assert trace.trace_id in text
        assert "latency waterfall" in text
        assert "critical path:" in text
        assert "stragglers:" in text

    def test_diff_text_reports_deltas(self):
        a = _traced_sw(48, "threaded", (16, 16))
        b = _traced_sw(96, "threaded", (16, 16))
        text = diff_text("a.json", a, "b.json", b)
        assert "wall delta:" in text
        assert "category totals" in text
        assert "critical-path fraction:" in text

    def test_causal_summary_is_json_shaped(self):
        import json

        trace = _traced_sw(64, "threaded", (16, 16))
        doc = causal_summary(trace)
        json.dumps(doc)  # must be JSON-able verbatim
        assert doc["trace_id"] == trace.trace_id
        assert doc["critical_path"]
        assert 0.0 <= doc["critical_path_fraction"] <= 1.0
        assert sum(doc["attribution"].values()) == pytest.approx(1.0)
