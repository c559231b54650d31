"""Tests for the recovery protocol, including the paper's Figure 6 example."""

import numpy as np
import pytest

from repro.apgas.place import PlaceGroup
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.recovery import recover_tiled as recover
from repro.core.runtime import DPX10Runtime
from repro.errors import PlaceZeroDeadError
from repro.patterns.grid import GridDag


class NullApp(DPX10App[int]):
    value_dtype = np.int64

    def compute(self, i, j, vertices):
        return i * 100 + j


def make_state(nplaces=3, height=3, width=4, dist_kind="block_rows", restore="discard"):
    """A per-vertex reference run's state, built as the runtime builds it."""
    cfg = DPX10Config(
        nplaces=nplaces, distribution=dist_kind, restore_manner=restore,
        tile_shape=(1, 1), cache_size=0,
    )
    runtime = DPX10Runtime(NullApp(), GridDag(height, width), cfg)
    return runtime._initialize(PlaceGroup(nplaces))


def finish(state, coords):
    for i, j in coords:
        state.plane.values[i, j] = i * 100 + j
        state.plane.finished[i, j] = 1
        state.completions += 1


def is_finished(state, i, j):
    return bool(state.plane.finished[i, j])


class TestRecoverBasics:
    def test_all_dead_unrecoverable(self):
        state = make_state(nplaces=1)
        state.group.kill(0)
        with pytest.raises(Exception):
            recover(state)

    def test_place_zero_dead_unrecoverable(self):
        state = make_state()
        state.group.kill(0)
        with pytest.raises(PlaceZeroDeadError):
            recover(state)

    def test_new_dist_covers_survivors_only(self):
        state = make_state()
        state.group.kill(2)
        recover(state)
        assert state.dist.place_ids == (0, 1)
        assert 2 not in state.ready
        assert not (state.plane.owners == 2).any()

    def test_indegrees_reset_from_finished_flags(self):
        state = make_state()
        finish(state, [(0, 0), (0, 1)])
        state.group.kill(2)
        recover(state)
        # (0,2) has its single remaining dep (0,1) finished -> ready
        # (1,1) deps (0,1) finished and (1,0) unfinished -> indegree 1
        ready_all = {c for q in state.ready.values() for c in q}
        assert (0, 2) in ready_all
        assert (1, 1) not in ready_all
        assert state.tiles.indegree[1 * 4 + 1] == 1

    def test_finished_cells_not_rescheduled(self):
        state = make_state()
        finish(state, [(0, 0)])
        state.group.kill(2)
        recover(state)
        ready_all = {c for q in state.ready.values() for c in q}
        assert (0, 0) not in ready_all

    def test_abort_latch_cleared(self):
        state = make_state()
        state.abort_event.set()
        state.group.kill(1)
        recover(state)
        assert not state.abort_event.is_set()
        assert state.abort_exc is None


class TestRestoreManners:
    def test_discard_drops_migrated_results(self):
        state = make_state(restore="discard")
        # (1,*) homed at place 1 under block_rows over 3 places of 3 rows
        finish(state, [(1, 0), (1, 1)])
        state.group.kill(2)
        stats = recover(state)
        # under the new 2-place block_rows, row 1 straddles/moves: results
        # whose home changed are discarded
        assert stats.discarded + stats.preserved_in_place == 2
        assert stats.copied == 0

    def test_copy_preserves_migrated_results(self):
        state = make_state(restore="copy")
        finish(state, [(1, 0), (1, 1)])
        before = state.network.stats.bytes
        state.group.kill(2)
        stats = recover(state)
        assert stats.discarded == 0
        assert stats.copied + stats.preserved_in_place == 2
        if stats.copied:
            assert state.network.stats.bytes > before
        # values survived the move
        for c in [(1, 0), (1, 1)]:
            assert is_finished(state, *c)
            assert state.plane.values[c] == c[0] * 100 + c[1]

    def test_dead_place_results_always_lost(self):
        state = make_state(restore="copy")
        finish(state, [(2, 0), (2, 1)])  # homed at place 2
        state.group.kill(2)
        stats = recover(state)
        assert stats.preserved_in_place == 0
        assert stats.copied == 0
        assert stats.to_recompute == 12  # everything again


class TestFigure6Scenario:
    """The paper's Figure 6: 12 vertices (3 rows x 4 cols) on 3 places by
    row; place 3 (our place 2) fails; the survivors split the cells."""

    def test_example(self):
        state = make_state(nplaces=3, height=3, width=4, dist_kind="block_flat")
        # paper (1-based): finished = (1,1), (1,2), (2,2), (2,3)
        # 0-based:                    (0,0), (0,1), (1,1), (1,2)
        finish(state, [(0, 0), (0, 1), (1, 1), (1, 2)])
        state.group.kill(2)
        stats = recover(state)
        assert stats.alive_places == (0, 1)
        # new block_flat over 2 places: cells 0..5 -> place 0, 6..11 -> place 1
        # (0,0),(0,1) stay on place 0 (flat 0,1); (1,1) flat 5 stays on
        # place 0?  old home of row 1 cells was place 1... check which
        # results survive: a result survives iff old home == new home.
        survived = [
            c
            for c in [(0, 0), (0, 1), (1, 1), (1, 2)]
            if is_finished(state, *c)
        ]
        # old homes (block_flat over 3 places, 4 cells each):
        #   (0,0) flat 0 -> old place 0, new place 0: survives
        #   (0,1) flat 1 -> old place 0, new place 0: survives
        #   (1,1) flat 5 -> old place 1, new place 0: DROPPED (paper's (2,2))
        #   (1,2) flat 6 -> old place 1, new place 1: survives (paper's (2,3))
        assert survived == [(0, 0), (0, 1), (1, 2)]
        assert stats.preserved_in_place == 3
        assert stats.discarded == 1
