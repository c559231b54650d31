"""Per-vertex state on the one plane (paper section VI-B).

The per-vertex reference keeps what the paper's vertex array holds — a
value, an indegree and a finish flag per cell — on the run's
:class:`~repro.core.plane.TilePlane` (values, flags, homes) and its
:class:`~repro.core.tiling.TileRunState` (per-cell indegrees on a grid
of 1×1 tiles). State is built as a run builds it, through
``DPX10Runtime._initialize``.
"""

from collections import deque

import numpy as np
import pytest

from repro.apgas.place import PlaceGroup
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.worker import execute_vertex, run_inline
from repro.errors import DeadPlaceException, DPX10Error
from repro.patterns.diagonal import DiagonalDag
from repro.patterns.interval import IntervalDag


class SumApp(DPX10App):
    """``1 + sum(dependencies)``, typed or object-valued."""

    def __init__(self, dtype=np.int64):
        self.value_dtype = dtype

    def compute(self, i, j, vertices):
        return 1 + sum(v.get_result() for v in vertices)


def make_state(nplaces=2, height=4, width=4, dag_cls=DiagonalDag, dtype=np.int64, **cfg):
    dag = dag_cls(height, width)
    config = DPX10Config(
        **{"nplaces": nplaces, "distribution": "block_rows", "tile_shape": (1, 1), **cfg}
    )
    state = DPX10Runtime(SumApp(dtype), dag, config)._initialize(PlaceGroup(nplaces))
    return state.group, dag, state


def indegree(state, i, j):
    return int(state.tiles.indegree[i * state.plane.grid.ntj + j])


class TestInit:
    def test_coords_cover_partition(self):
        _, dag, state = make_state()
        homed = sorted(map(tuple, np.argwhere(state.plane.owners == 0).tolist()))
        assert homed == sorted(state.dist.owned_coords(0))
        assert len(homed) == 8

    def test_indegrees_match_pattern(self):
        _, _, state = make_state()
        assert indegree(state, 0, 0) == 0  # corner seed
        assert indegree(state, 0, 1) == 1  # depends on (0,0)
        assert indegree(state, 1, 1) == 3

    def test_inactive_cells_born_finished(self):
        # an inactive cell is no unit: no home, never schedules, never
        # counts toward a place's remaining work
        _, _, state = make_state(nplaces=1, dag_cls=IntervalDag)
        assert state.plane.owners[2, 0] == -1  # lower triangle inactive
        assert not state.plane.finished[0, 0]
        assert state.total_active == 10  # upper triangle of 4x4
        assert state.tiles.remaining == {0: 10}
        run_inline(state)
        assert not state.plane.finished[2, 0]

    def test_inactive_init_value_object_dtype(self):
        # the bound dag answers an inactive read with the app's init_value
        group = PlaceGroup(1)
        dag = IntervalDag(3, 3)
        app = SumApp(None)
        app.init_value = lambda i, j: f"init{i}{j}"
        DPX10Runtime(app, dag, DPX10Config(nplaces=1, tile_shape=(1, 1)))._initialize(group)
        assert dag.get_vertex(1, 0).get_result() == "init10"

    def test_zero_indegree_unfinished(self):
        _, _, state = make_state()
        assert state.ready[0] == deque([(0, 0)])
        assert not state.ready[1]


class TestStateTransitions:
    def test_result_lifecycle(self):
        _, dag, state = make_state()
        with pytest.raises(DPX10Error, match="not finished"):
            dag.get_vertex(0, 0).get_result()
        execute_vertex(state, (0, 0))
        assert dag.get_vertex(0, 0).get_result() == 1
        assert state.tiles.remaining[0] == 7

    def test_mark_finished_idempotent_for_counter(self):
        _, _, state = make_state()
        execute_vertex(state, (0, 0))
        execute_vertex(state, (0, 0))
        assert state.tiles.remaining[0] == 7

    def test_dec_indegree_signals_ready(self):
        _, _, state = make_state()
        execute_vertex(state, (0, 0))  # (1, 1): 3 -> 2
        execute_vertex(state, (0, 1))  # 2 -> 1
        assert indegree(state, 1, 1) == 1
        assert (1, 1) not in state.ready[0]
        execute_vertex(state, (1, 0))  # 1 -> 0: schedulable
        assert (1, 1) in state.ready[0]

    def test_all_done(self):
        _, _, state = make_state(nplaces=1, height=2, width=2)
        assert not state.place_done(0)
        run_inline(state)
        assert state.place_done(0) and state.all_done()

    def test_finished_items_only_active_finished(self):
        _, _, state = make_state(nplaces=1, height=3, width=3, dag_cls=IntervalDag)
        execute_vertex(state, (0, 0))
        # a snapshot copies finished active cells only
        assert dict(state.plane.results(copy=True)) == {(0, 0): 1}


class TestDeadPlace:
    def test_access_after_kill_raises(self):
        group, _, state = make_state()
        for cell in [(0, 0), (0, 1), (1, 0)]:
            execute_vertex(state, cell)
        group.kill(0)
        for op in (
            lambda: execute_vertex(state, (2, 0)),  # reads (1, 0) off place 0
            lambda: execute_vertex(state, (1, 1)),  # stores at place 0
        ):
            with pytest.raises(DeadPlaceException) as exc:
                op()
            assert exc.value.place_id == 0

    def test_other_place_unaffected(self):
        group, dag, state = make_state(distribution="block_cols")
        group.kill(1)
        execute_vertex(state, (0, 0))
        execute_vertex(state, (1, 0))
        assert dag.get_vertex(1, 0).get_result() == 2


class TestDtypes:
    def test_typed_array_for_int_dtype(self):
        _, _, state = make_state(dtype=np.int64)
        assert state.plane.values.dtype == np.int64

    def test_object_array_for_none(self):
        _, dag, state = make_state(dtype=None)
        assert state.plane.values.dtype == object
        state.app.compute = lambda i, j, vertices: (1, 2, 3)
        execute_vertex(state, (0, 0))
        assert dag.get_vertex(0, 0).get_result() == (1, 2, 3)


class TestBlockAPIs:
    """Spilled planes and recovery salvage on the per-vertex reference."""

    def test_block_roundtrip_spilled(self, tmp_path):
        _, dag, state = make_state(nplaces=1, spill_dir=str(tmp_path))
        # the values really live in a memory-mapped file
        assert isinstance(state.plane.values, np.memmap)
        coords = [(0, 0), (0, 1), (1, 0)]
        for c in coords:
            execute_vertex(state, c)
        assert [dag.get_vertex(*c).get_result() for c in coords] == [1, 2, 2]
        assert dict(state.plane.results(copy=True)) == dict(zip(coords, [1, 2, 2]))

    def test_open_spill_creates_npy_memmap(self, tmp_path):
        _, _, state = make_state(nplaces=1, height=3, width=3, spill_dir=str(tmp_path))
        values = state.plane.values
        assert isinstance(values, np.memmap)
        assert values.filename.startswith(str(tmp_path / "dpx10-plane-"))
        assert values.filename.endswith(".npy")
        # unlinked once mapped: nothing to clean up however the run ends
        assert list(tmp_path.glob("*.npy")) == []

    def test_finished_items_after_partial_recovery(self):
        """Recovery salvage: only the surviving places' finished active
        cells are re-homed."""
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
