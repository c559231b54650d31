"""Concurrency stress: the substrate under heavy threaded churn."""

import threading


from repro.apgas.activity import Activity
from repro.apgas.engine import ThreadedEngine
from repro.apgas.place import PlaceGroup
from repro.dist.dist import Dist
from repro.dist.dist_array import DistArray
from repro.dist.region import Region2D


class TestThreadedEngineStress:
    def test_many_activities_counted_exactly(self):
        group = PlaceGroup(4)
        engine = ThreadedEngine(group, threads_per_place=3)
        counter = {"n": 0}
        lock = threading.Lock()

        def bump():
            with lock:
                counter["n"] += 1

        for k in range(2000):
            engine.submit(Activity(k % 4, bump))
        engine.run_all()
        assert counter["n"] == 2000
        assert sum(p.activities_run for p in group) == 2000
        engine.shutdown()

    def test_deep_nested_spawning(self):
        group = PlaceGroup(2)
        engine = ThreadedEngine(group, threads_per_place=2)
        done = []
        lock = threading.Lock()

        def spawn(depth):
            if depth == 0:
                with lock:
                    done.append(1)
                return
            for _ in range(2):
                engine.submit(Activity(depth % 2, spawn, (depth - 1,)))

        engine.submit(Activity(0, spawn, (6,)))
        engine.run_all()
        assert len(done) == 64  # 2^6 leaves
        engine.shutdown()

    def test_reuse_across_many_rounds(self):
        group = PlaceGroup(2)
        engine = ThreadedEngine(group)
        for round_ in range(30):
            out = []
            lock = threading.Lock()
            for k in range(20):
                engine.submit(
                    Activity(k % 2, lambda v=k: (lock.acquire(), out.append(v), lock.release()))
                )
            engine.run_all()
            assert sorted(out) == list(range(20))
        engine.shutdown()


class TestDistArrayConcurrency:
    def test_concurrent_disjoint_writers(self):
        group = PlaceGroup(4)
        region = Region2D.of_shape(40, 40)
        arr = DistArray(Dist.block_rows(region, [0, 1, 2, 3]), group)

        def writer(band):
            for i in range(band * 10, (band + 1) * 10):
                for j in range(40):
                    arr.set(i, j, i * 100 + j)

        threads = [threading.Thread(target=writer, args=(b,)) for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert arr.total_set() == 1600
        assert arr.get(35, 7) == 3507

    def test_concurrent_read_write_same_place(self):
        group = PlaceGroup(1)
        region = Region2D.of_shape(10, 10)
        arr = DistArray(Dist.block_rows(region, [0]), group)
        errors = []

        def writer():
            try:
                for k in range(500):
                    arr.set(k % 10, (k // 10) % 10, k)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                for _ in range(500):
                    arr.local_size(0)
                    arr.contains(3, 3)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestThreadedRuntimeStress:
    def test_repeated_threaded_runs_stable(self):
        from repro.apps.lcs import solve_lcs
        from repro.apps.serial import lcs_matrix
        from repro.core.config import DPX10Config

        x, y = "ACGTACGGT", "TACGATCGG"
        expect = int(lcs_matrix(x, y)[-1, -1])
        for seed in range(8):
            cfg = DPX10Config(
                nplaces=4,
                engine="threaded",
                scheduler="random",
                seed=seed,
                tile_shape=(3, 3) if seed % 2 else None,
            )
            app, _ = solve_lcs(x, y, cfg)
            assert app.length == expect
