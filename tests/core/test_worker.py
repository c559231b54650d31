"""The in-process drivers (run_inline / run_threaded) and execute_vertex.

The drivers are written once per engine and run whatever the ready lists
hold: cells through ``execute_vertex``, tiles through ``execute_tile``.
"""

from collections import deque

import numpy as np
import pytest

from repro.apgas.failure import FaultInjector, FaultPlan
from repro.apgas.network import NetworkModel
from repro.apgas.place import PlaceGroup
from repro.apgas.runtime import GlobalRuntime
from repro.core import runtime as runtime_module
from repro.core.api import DPX10App
from repro.core.cache import RemoteCache
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.scheduler import make_strategy
from repro.core.vertex_store import build_stores
from repro.core.worker import ExecutionState, execute_vertex, run_inline
from repro.errors import DeadPlaceException, DependencyRaceError, PatternError
from repro.patterns.diagonal import DiagonalDag
from repro.patterns.grid import GridDag

from tests.analysis.fixtures import undeclared_read_target
from tests.core.test_tiling import MixApp


class RecordingApp(DPX10App[int]):
    """Returns a function of (i, j) and records dependency order."""

    value_dtype = np.int64

    def __init__(self):
        self.seen_deps = {}

    def compute(self, i, j, vertices):
        self.seen_deps[(i, j)] = [(v.i, v.j) for v in vertices]
        return i * 10 + j


def make_state(dag=None, nplaces=2, cache_size=8, dist_kind="block_rows", plans=()):
    dag = dag or GridDag(4, 4)
    group = PlaceGroup(nplaces)
    cfg = DPX10Config(nplaces=nplaces, cache_size=cache_size, distribution=dist_kind)
    app = RecordingApp()
    dist = cfg.make_dist(dag.region, group.alive_ids())
    stores = build_stores(group, dag, dist, app.value_dtype, app.init_value)
    ready = {pid: deque(stores[pid].zero_indegree_unfinished()) for pid in dist.place_ids}
    caches = {pid: RemoteCache(cache_size) for pid in range(nplaces)}
    total = sum(s.active_count for s in stores.values())
    state = ExecutionState(
        app=app,
        dag=dag,
        config=cfg,
        group=group,
        network=NetworkModel(),
        strategy=make_strategy("local"),
        dist=dist,
        stores=stores,
        ready=ready,
        caches=caches,
        injector=FaultInjector(list(plans), total) if plans else None,
        total_active=total,
    )
    return state, app


class TestExecuteVertex:
    def test_seed_vertex_lifecycle(self):
        state, app = make_state()
        execute_vertex(state, (0, 0))
        store = state.stores[0]
        assert store.is_finished(0, 0)
        assert store.get_result(0, 0) == 0
        assert state.completions == 1
        # anti-deps notified: (0,1) and (1,0) had indegree 1 -> now ready
        ready_all = {c for q in state.ready.values() for c in q}
        assert {(0, 1), (1, 0)} <= ready_all

    def test_dependency_order_matches_pattern(self):
        dag = DiagonalDag(3, 3)
        state, app = make_state(dag=dag, nplaces=1)
        run_inline(state)
        assert app.seen_deps[(1, 1)] == [(0, 0), (0, 1), (1, 0)]
        assert app.seen_deps[(0, 0)] == []

    def test_local_dep_fetch_free(self):
        state, app = make_state(nplaces=1)
        run_inline(state)
        assert state.network.stats.bytes == 0

    def test_remote_dep_recorded_and_cached(self):
        # block_rows over 2 places on a 4x4 grid: rows 0-1 on place 0
        state, app = make_state(nplaces=2, cache_size=8)
        run_inline(state)
        # cells (2, j) fetch (1, j) remotely exactly once each
        assert state.network.stats.by_pair[(0, 1)] == 4 * state.config.value_nbytes
        assert state.caches[1].misses == 4

    def test_cache_hit_avoids_second_fetch(self):
        dag = DiagonalDag(4, 4)
        state, app = make_state(dag=dag, nplaces=2, cache_size=16)
        run_inline(state)
        assert state.caches[1].hits > 0

    def test_cacheless_fetches_every_time(self):
        dag = DiagonalDag(4, 4)
        s_cache, _ = make_state(dag=dag, nplaces=2, cache_size=16)
        s_nocache, _ = make_state(dag=dag, nplaces=2, cache_size=0)
        run_inline(s_cache)
        run_inline(s_nocache)
        assert s_nocache.network.stats.bytes > s_cache.network.stats.bytes

    def test_remote_execution_writes_back(self):
        state, app = make_state(nplaces=2)

        class AlwaysPlaceOne:
            def choose_place(self, coord, home, dep_homes, alive, rng, nbytes):
                return 1

        # (0,0) [home place 0] is placed at place 1: result write-back 0<-1
        state.strategy = AlwaysPlaceOne()
        execute_vertex(state, (0, 0))
        assert state.stores[0].is_finished(0, 0)
        assert state.network.stats.by_pair[(1, 0)] == state.config.value_nbytes
        assert state.executed_by[1] == 1

    def test_fault_trigger_kills_and_raises(self):
        state, app = make_state(plans=[FaultPlan(1, after_completions=1)])
        with pytest.raises(DeadPlaceException) as exc:
            execute_vertex(state, (0, 0))
        assert exc.value.place_id == 1
        assert not state.group.is_alive(1)
        # the completed vertex's result survived on place 0
        assert state.stores[0].is_finished(0, 0)

    def test_notification_to_dead_place_skipped(self):
        state, app = make_state()
        state.group.kill(1)
        # (3,0) lives on dead place 1; finishing (0,0) must not raise
        execute_vertex(state, (0, 0))
        assert state.completions == 1


class TestRunInline:
    def test_completes_whole_dag(self):
        state, app = make_state()
        run_inline(state)
        assert state.completions == 16
        assert all(s.all_done() for s in state.stores.values())

    def test_deadlock_detected(self):
        state, app = make_state()
        # drain the seed: nothing will ever become ready
        state.ready[0].clear()
        with pytest.raises(PatternError, match="deadlock"):
            run_inline(state)


# -- one loop per engine, for cells and tiles alike -----------------------------------
TILE = (4, 4)


def run_mix(fault_plans=(), **cfg):
    dag = DiagonalDag(12, 12)
    report = DPX10Runtime(
        MixApp(), dag, DPX10Config(nplaces=3, **cfg), fault_plans=list(fault_plans)
    ).run()
    return dag.to_array(fill=-1, dtype=np.int64), report


class TestSharedDrivers:
    @pytest.mark.parametrize(
        "engine, driver", [("inline", "run_inline"), ("threaded", "run_threaded")]
    )
    def test_cells_and_tiles_enter_the_same_driver(self, monkeypatch, engine, driver):
        real = getattr(runtime_module, driver)
        entered = []

        def spy(state):
            entered.append(state.tiles is not None)
            return real(state)

        monkeypatch.setattr(runtime_module, driver, spy)
        per_vertex, _ = run_mix(engine=engine, tile_shape=(1, 1))
        tiled, _ = run_mix(engine=engine, tile_shape=TILE)
        assert entered == [False, True]
        np.testing.assert_array_equal(tiled, per_vertex)

    def test_tiling_exports_no_driver(self):
        from repro.core import tiling

        assert not [name for name in vars(tiling) if name.startswith("run_")]

    def test_tiled_deadlock_detected(self):
        runtime = DPX10Runtime(
            MixApp(), DiagonalDag(8, 8), DPX10Config(nplaces=2, tile_shape=TILE)
        )
        rt = GlobalRuntime(2, network=runtime.network)
        try:
            state = runtime._initialize(rt)
            assert state.tiles is not None
            # drain the seed tile: nothing will ever become ready
            for queue in state.ready.values():
                queue.clear()
            with pytest.raises(PatternError, match="deadlock"):
                run_inline(state)
        finally:
            rt.shutdown()

    def test_threaded_tiled_kill_mid_wavefront_recovers(self):
        # the observing worker latches the abort, every worker parks, the
        # runtime recovers and re-enters run_threaded on the survivors
        reference, _ = run_mix(tile_shape=(1, 1))
        matrix, report = run_mix(
            [FaultPlan(1, at_fraction=0.5)], engine="threaded", tile_shape=TILE
        )
        assert report.recoveries == 1
        assert report.final_alive_places == 2
        np.testing.assert_array_equal(matrix, reference)

    def test_threaded_tiled_race_stops_the_run(self):
        # a race diagnostic inside one tile must abort every worker, not
        # strand the others waiting on that tile's successors
        app, dag = undeclared_read_target()
        cfg = DPX10Config(nplaces=2, engine="threaded", tile_shape=TILE, sanitize=True)
        with pytest.raises(DependencyRaceError):
            DPX10Runtime(app, dag, cfg).run()
