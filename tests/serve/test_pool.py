"""Warm place-pool mechanics: lease/release reuse, spares, segments."""

import numpy as np
import pytest

from repro.apps.lcs import solve_lcs
from repro.apps.serial import lcs_matrix
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.shm import shm_supported
from repro.errors import DPX10Error, RemoteComputeError
from repro.patterns import DiagonalDag
from repro.serve.pool import PlacePool
from tests.core.test_mp_engine import BoomApp


@pytest.fixture
def pool():
    with PlacePool(3, prewarm=True) as p:
        yield p


class TestLeasing:
    def test_prewarm_forks_full_capacity(self, pool):
        stats = pool.stats()
        assert stats.idle == 3 and stats.forks == 3

    def test_release_returns_same_processes(self, pool):
        procs = pool.lease(2)
        assert sorted(procs) == [0, 1]
        pids = {p.proc.pid for p in procs.values()}
        pool.release(list(procs.values()))
        again = pool.lease(2)
        assert {p.proc.pid for p in again.values()} == pids  # warm reuse
        pool.release(list(again.values()))
        assert pool.stats().forks == 3  # nothing new was forked

    def test_lease_beyond_capacity_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.lease(4)

    def test_lease_timeout_when_all_busy(self, pool):
        procs = pool.lease(3)
        with pytest.raises(TimeoutError):
            pool.lease(1, timeout=0.05)
        pool.release(list(procs.values()))

    def test_dead_worker_retired_on_release(self, pool):
        procs = pool.lease(2)
        procs[0].kill()
        pool.release(list(procs.values()))
        stats = pool.stats()
        assert stats.retired == 1
        # capacity refills lazily: the next lease forks a replacement
        refill = pool.lease(3)
        assert all(p.alive for p in refill.values())
        pool.release(list(refill.values()))
        assert pool.stats().forks == 4


class TestSpares:
    def test_take_spare_retires_corpse(self, pool):
        procs = pool.lease(2)
        corpse = procs[1]
        corpse.kill()
        spare = pool.take_spare(corpse)
        assert spare is not None and spare.alive
        assert spare is not corpse
        stats = pool.stats()
        assert stats.restarts_served == 1 and stats.retired == 1
        pool.release([procs[0], spare])

    def test_spare_available_even_with_pool_fully_leased(self, pool):
        procs = pool.lease(3)  # nothing idle anywhere
        corpse = procs[2]
        corpse.kill()
        spare = pool.take_spare(corpse)  # the corpse's slot funds a fork
        assert spare is not None and spare.alive
        pool.release([procs[0], procs[1], spare])


class TestClose:
    def test_close_is_idempotent_and_stops_workers(self):
        pool = PlacePool(2, prewarm=True)
        procs = pool.lease(1)
        pool.release(list(procs.values()))
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(DPX10Error):
            pool.lease(1)

    def test_release_after_close_retires(self):
        pool = PlacePool(2, prewarm=True)
        procs = pool.lease(2)
        pool.close()
        pool.release(list(procs.values()))
        assert pool.stats().idle == 0


@pytest.mark.skipif(not shm_supported(), reason="POSIX shared memory unavailable")
class TestSegments:
    def test_segment_reuse_and_zero_fill(self, pool):
        lease = pool.segment_lease()
        arr, name = lease.create((16, 16), np.float64, "values")
        arr[:] = 7.0
        lease.close()
        again = pool.segment_lease()
        arr2, name2 = again.create((16, 16), np.float64, "values")
        assert name2 == name  # same pooled segment came back
        assert not arr2.any()  # ...zero-filled before reuse
        again.close()
        stats = pool.stats()
        assert stats.segment_creates == 1 and stats.segment_leases == 2

    def test_lru_byte_cap_unlinks_stale_segments(self):
        with PlacePool(1, prewarm=False, max_segment_bytes=4096) as pool:
            lease = pool.segment_lease()
            lease.create((64, 64), np.float64, "big")  # 32 KiB > cap
            lease.close()
            assert pool.stats().segment_bytes_total == 0

    def test_bytes_mapped_tracks_created_planes(self, pool):
        lease = pool.segment_lease()
        lease.create((8, 8), np.float64, "v")
        assert lease.bytes_mapped == 8 * 8 * 8
        lease.close()


class TestUserExceptions:
    """A ``compute()`` that raises must not cost the pool a worker."""

    @pytest.mark.parametrize("shm", [True, False], ids=["shm", "pipe"])
    def test_pooled_workers_survive_and_serve_the_next_job(self, pool, shm):
        if shm and not shm_supported():
            pytest.skip("no usable shared memory on this platform")
        pids = sorted(p.proc.pid for p in pool._idle)

        def cfg():
            return DPX10Config(nplaces=3, engine="mp", shm=shm, place_pool=pool)

        with pytest.raises(RemoteComputeError):
            DPX10Runtime(BoomApp(), DiagonalDag(9, 9), cfg()).run()
        stats = pool.stats()
        assert (stats.idle, stats.forks, stats.retired) == (3, 3, 0)
        assert sorted(p.proc.pid for p in pool._idle) == pids
        x, y = "ABCBDABACGTACGT", "BDCABAACGGTTAC"
        app, _ = solve_lcs(x, y, cfg())
        assert app.length == int(lcs_matrix(x, y)[-1, -1])
        assert pool.stats().forks == 3


class TestIdleWorkersHoldNoJobData:
    def test_reply_cache_keeps_no_payload_after_release(self, pool):
        """On private planes every ``done`` reply carries a result patch;
        the worker's reply cache must not pin those past the run, yet a
        late duplicate of any envelope must still never re-run a kernel."""
        x, y = "ABCBDABACGTACGT", "BDCABAACGGTTAC"
        cfg = DPX10Config(
            nplaces=3, engine="mp", shm=False, tile_shape=(4, 4), place_pool=pool
        )
        app, _ = solve_lcs(x, y, cfg)
        assert app.length == int(lcs_matrix(x, y)[-1, -1])
        for proc in pool._idle:
            last = proc._seq
            assert 3 < last <= 64  # init, unit batches, stats, reset: all cached
            for seq in range(1, last + 1):
                # what the cache answers IS what it holds
                proc.raw.send((seq, "units", ((0, 0),), None))
                reply = proc.raw.recv()
                assert reply[0] == seq and len(reply) == 2, reply
            (_, snapshot) = proc.request(("stats",))
            dedup = snapshot["dpx10_mp_worker_dedup_total"]["values"]
            cells = snapshot["dpx10_mp_worker_cells_total"]["values"]
            assert sum(v for _, v in dedup) == last
            assert sum(v for _, v in cells) == 0
