"""Tests for the shared-memory segment lifecycle and the shm data plane.

Covers :mod:`repro.core.shm` directly (arena create/attach/close, leak
detection, creator-only unlink) and the transport end-to-end: mp runs
must produce identical results over shm and pickled pipes, object-dtype
apps must fall back to pipes, and recovery must re-materialize a dead
place's plane regions. Everything here skips cleanly on platforms
without usable shared memory.
"""

import numpy as np
import pytest

from repro.core import shm
from repro.core.config import DPX10Config
from repro.core.shm import ShmArena, leaked_segments, shm_supported

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="no usable shared memory on this platform"
)


class TestArena:
    def test_create_returns_zeroed_view_and_name(self):
        with ShmArena() as arena:
            arr, name = arena.create((4, 5), np.int64, "t")
            assert name.startswith(shm.SEGMENT_PREFIX)
            assert arr.shape == (4, 5) and arr.dtype == np.int64
            assert not arr.any()  # fresh segments read as zero

    def test_attach_sees_creator_writes(self):
        with ShmArena() as arena:
            arr, name = arena.create((8,), np.float64, "t")
            arr[3] = 2.5
            view = arena.attach(name, (8,), np.float64)
            assert view[3] == 2.5
            view[4] = 7.0
            assert arr[4] == 7.0

    def test_bytes_mapped_counts_live_segments(self):
        arena = ShmArena()
        assert arena.bytes_mapped == 0
        arena.ndarray((10,), np.int64)
        assert arena.bytes_mapped == 80
        arena.ndarray((2, 2), np.uint8, "b")
        assert arena.bytes_mapped == 84
        arena.close()
        assert arena.bytes_mapped == 0

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena()
        _, name = arena.create((16,), np.int32)
        assert name in leaked_segments()
        arena.close()
        assert name not in leaked_segments()
        arena.close()  # second close is a no-op
        assert arena.closed

    def test_attachments_closed_but_not_unlinked(self):
        owner = ShmArena()
        _, name = owner.create((16,), np.int32)
        other = ShmArena()
        other.attach(name, (16,), np.int32)
        other.close()
        # the attaching arena must not have unlinked the owner's segment
        assert name in leaked_segments()
        owner.close()
        assert name not in leaked_segments()

    def test_attach_array_detach_all(self):
        with ShmArena() as arena:
            arr, name = arena.create((6,), np.int64)
            arr[:] = np.arange(6)
            view = shm.attach_array(name, (6,), np.int64)
            assert list(view) == list(range(6))
            shm.detach_all()

    def test_no_leaks_after_probe(self):
        assert shm_supported()
        assert leaked_segments() == []


def _dna(n, seed):
    from repro.util.rng import seeded_rng

    rng = seeded_rng(seed, "test-shm")
    return "".join(rng.choice(list("ACGT"), size=n))


def _solve(engine, *, shm_flag, tile_shape=None, fault_plans=(), size=48):
    from repro.apps.smith_waterman import solve_sw

    cfg = DPX10Config(
        nplaces=4, engine=engine, shm=shm_flag, tile_shape=tile_shape
    )
    app, report = solve_sw(
        _dna(size, 1), _dna(size - 3, 2), cfg, fault_plans=fault_plans
    )
    return app.best_score, report


class TestMpTransportEquivalence:
    @pytest.mark.parametrize("tile_shape", [None, (8, 8), (1, 1)])
    def test_shm_matches_pipes(self, tile_shape):
        pipe_score, _ = _solve("mp", shm_flag=False, tile_shape=tile_shape)
        shm_score, _ = _solve("mp", shm_flag=True, tile_shape=tile_shape)
        assert shm_score == pipe_score
        assert leaked_segments() == []

    def test_object_dtype_falls_back_to_pipes(self):
        from repro.apps.smith_waterman import solve_swlag

        cfg = DPX10Config(nplaces=3, engine="mp", shm=True)
        app, _ = solve_swlag(_dna(20, 3), _dna(18, 4), cfg)
        base_cfg = DPX10Config(nplaces=3, engine="mp", shm=False)
        base, _ = solve_swlag(_dna(20, 3), _dna(18, 4), base_cfg)
        assert app.best_score == base.best_score
        assert leaked_segments() == []

    def test_recovery_rematerializes_dead_plane(self):
        from repro.apgas.failure import FaultPlan

        base_score, _ = _solve("mp", shm_flag=False)
        score, report = _solve(
            "mp",
            shm_flag=True,
            tile_shape=(8, 8),
            fault_plans=[FaultPlan(2, after_completions=400)],
        )
        assert score == base_score
        assert report.recoveries >= 1
        assert leaked_segments() == []


class TestInProcessShmStores:
    """``shm`` selects the mp transport; in-process engines ignore it
    (their tile plane is a heap array and their stores are never
    segment-backed), so forcing it on changes nothing and maps nothing."""

    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_results_and_cleanup(self, engine):
        base_score, _ = _solve(engine, shm_flag=False)
        score, report = _solve(engine, shm_flag=True, tile_shape=(8, 8))
        assert score == base_score
        assert leaked_segments() == []

    def test_post_run_result_reads_survive_arena_close(self):
        from repro.apps.smith_waterman import SWApp
        from repro.core.runtime import DPX10Runtime
        from repro.patterns.diagonal import DiagonalDag

        a, b = _dna(24, 7), _dna(20, 8)
        app = SWApp(a, b)
        dag = DiagonalDag(len(a) + 1, len(b) + 1)
        DPX10Runtime(
            app, dag, DPX10Config(nplaces=3, engine="inline", shm=True)
        ).run()
        assert dag.get_vertex(len(a), len(b)).get_result() is not None
        assert leaked_segments() == []
