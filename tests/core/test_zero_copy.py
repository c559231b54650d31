"""The end of a run copies nothing: the plane is the result.

An unpooled mp run's shared segments are unlinked once every place has
attached, and the master's mapping becomes the run's result; ``to_array``
on a fully finished numeric plane returns a read-only view of it. Pooled
runs copy their plane out, since the next job re-leases the segments.
Every backing still gives the matrix ``repro.native.sw_native`` gives.
"""

import mmap
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import native
from repro.apps.smith_waterman import SWApp
from repro.core.config import DPX10Config
from repro.core.plane import PlaneResults
from repro.core.runtime import DPX10Runtime
from repro.core.shm import SEGMENT_PREFIX, leaked_segments, shm_supported
from repro.patterns.diagonal import DiagonalDag
from repro.serve.pool import PlacePool
from repro.util.rng import seeded_rng

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="no usable shared memory on this platform"
)

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _dna(n, seed):
    return "".join(seeded_rng(seed, "test-zero-copy").choice(list("ACGT"), size=n))


def _sw(a, b, **config):
    app, dag = SWApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)
    DPX10Runtime(app, dag, DPX10Config(nplaces=2, tile_shape=(8, 8), **config)).run()
    return app, dag


def _mapping_of(array):
    """What finally backs ``array``: walk its bases past the arrays."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array


def _children(pid):
    """Live child pids of ``pid`` (Linux /proc)."""
    kids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            kids += [int(k) for k in fh.read().split()]
    return kids


def _run_script(body, timeout=120):
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


class TestBulkView:
    """``PlaneResults.as_bulk``: a view exactly where ``fill`` cannot apply."""

    def plane(self, dtype=np.int64, finished=True):
        values = np.arange(12, dtype=dtype).reshape(3, 4)
        if dtype is object:
            values = values.astype(object)
        done = np.full((3, 4), finished, bool)
        done[0, 1] = True
        return values, PlaneResults(values, done)

    def test_a_finished_numeric_plane_is_viewed_read_only(self):
        values, results = self.plane()
        out = results.as_bulk(-1, np.int64)
        assert np.shares_memory(out, values) and not out.flags.writeable
        assert np.array_equal(out, values)
        with pytest.raises(ValueError):
            out[0, 0] = 5
        assert values.flags.writeable  # the plane itself stays writable

    @pytest.mark.parametrize(
        "case",
        [
            dict(finished=False),
            dict(want=np.int32),
            dict(want=None),
            dict(dtype=object, want=None),
        ],
        ids=["partly-finished", "other-dtype", "no-dtype", "object-plane"],
    )
    def test_every_other_case_gets_a_fresh_writable_array(self, case):
        values, results = self.plane(case.get("dtype", np.int64), case.get("finished", True))
        out = results.as_bulk(-1, case.get("want", np.int64))
        assert out.flags.writeable and not np.shares_memory(out, values)
        out[0, 0] = 7
        assert values[0, 0] == 0


class TestEveryBackingIsExact:
    @pytest.mark.parametrize(
        "config",
        [dict(engine="inline"), dict(engine="mp", shm=True), dict(engine="mp", shm=False)],
        ids=["inline", "mp-shm", "mp-private"],
    )
    def test_matches_native(self, config):
        if config.get("shm") and not shm_supported():
            pytest.skip("no usable shared memory on this platform")
        a, b = _dna(37, 1), _dna(29, 2)
        app, dag = _sw(a, b, **config)
        want = native.sw_native(a, b)
        assert np.array_equal(dag.to_array(fill=-1, dtype=np.int64), want)
        assert app.best_score == int(want.max())


@needs_shm
class TestUnpooledPlane:
    def test_the_master_mapping_is_the_result(self):
        a, b = _dna(40, 3), _dna(33, 4)
        _, dag = _sw(a, b, engine="mp", shm=True)
        out = dag.to_array(fill=-1, dtype=np.int64)
        assert isinstance(_mapping_of(out), mmap.mmap)  # not a heap copy
        assert not out.flags.writeable
        assert np.array_equal(out, native.sw_native(a, b))

    def test_names_are_gone_once_the_places_attached(self):
        before = set(leaked_segments())
        seen = []

        def progress(done, total):
            seen.append(set(leaked_segments()) - before)

        a, b = _dna(48, 5), _dna(48, 6)
        _sw(a, b, engine="mp", shm=True, on_progress=progress, progress_interval=300)
        assert len(seen) >= 3 and all(s == set() for s in seen), seen

    def test_a_sigkilled_master_leaves_no_segment(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs a Linux /proc")
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent("""
                import time
                from repro.apps.smith_waterman import solve_sw
                from repro.core.config import DPX10Config

                def stall(done, total):
                    print("mid-run", flush=True)
                    time.sleep(60)

                cfg = DPX10Config(engine="mp", nplaces=2, tile_shape=(8, 8),
                                  on_progress=stall, progress_interval=200)
                solve_sw("ACGT" * 16, "TGCA" * 16, cfg)
            """)],
            env=dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        prefix = f"{SEGMENT_PREFIX}{proc.pid}-"
        orphans = []
        try:
            assert proc.stdout.readline().strip() == "mid-run"
            orphans = _children(proc.pid)  # the places and the resource tracker
            assert [s for s in leaked_segments() if s.startswith(prefix)] == []
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()
        try:
            assert [s for s in leaked_segments() if s.startswith(prefix)] == []
        finally:
            # the places outlive a SIGKILLed master (each holds inherited
            # pipe ends, so none sees EOF): reap them here
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_dropping_the_result_is_quiet_and_unmaps(self):
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs a Linux /proc")
        done = _run_script("""
            import gc
            import numpy as np
            from repro.apps.smith_waterman import SWApp
            from repro.core.config import DPX10Config
            from repro.core.runtime import DPX10Runtime
            from repro.patterns.diagonal import DiagonalDag

            def mapped():
                with open("/proc/self/maps") as maps:
                    return sum("dpx10-" in line for line in maps)

            a, b = "ACGTTGCA" * 6, "TGCAACGT" * 5
            app, dag = SWApp(a, b), DiagonalDag(len(a) + 1, len(b) + 1)
            DPX10Runtime(app, dag, DPX10Config(engine="mp", nplaces=2)).run()
            scores = dag.to_array(fill=0, dtype=np.int64)
            print(mapped(), int(scores.max()) == app.best_score)
            del app, dag, scores
            gc.collect()
            print(mapped())
        """)
        assert done.returncode == 0, done.stderr
        assert "Exception ignored" not in done.stderr
        assert "BufferError" not in done.stderr
        during, after = done.stdout.split("\n")[:2]
        assert during == "2 True" and after == "0"


@needs_shm
def test_a_pooled_result_survives_the_next_job_on_its_segments():
    a, b = _dna(30, 7), _dna(26, 8)
    c, d = _dna(30, 9), _dna(26, 10)
    with PlacePool(2, prewarm=False) as pool:
        _, first = _sw(a, b, engine="mp", shm=True, place_pool=pool)
        _, second = _sw(c, d, engine="mp", shm=True, place_pool=pool)
        stats = pool.stats()
        assert (stats.segment_creates, stats.segment_leases) == (2, 4)
        assert np.array_equal(first.to_array(fill=-1, dtype=np.int64), native.sw_native(a, b))
        assert np.array_equal(second.to_array(fill=-1, dtype=np.int64), native.sw_native(c, d))
