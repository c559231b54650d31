"""The in-process drivers (run_inline / run_threaded) and execute_vertex.

The drivers are written once per engine and run whatever the ready lists
hold: cells through ``execute_vertex``, batches of ready tiles (a
threaded place's list, or every place's on an inline turn) through
``execute_tiles``.
"""

import numpy as np
import pytest

from repro.apgas.failure import FaultPlan
from repro.apgas.place import PlaceGroup
from repro.core import runtime as runtime_module
from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.core.scheduler import make_strategy
from repro.core.worker import execute_vertex, run_inline
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


class FailingApp(RecordingApp):
    """Raises a plain user error at one cell."""

    def compute(self, i, j, vertices):
        if (i, j) == (3, 2):
            raise ValueError(f"compute failed at {(i, j)}")
        return super().compute(i, j, vertices)


def make_state(dag=None, nplaces=2, cache_size=8, dist_kind="block_rows", plans=()):
    """A per-vertex reference run's state, built as the runtime builds it."""
    dag = dag or GridDag(4, 4)
    cfg = DPX10Config(
        nplaces=nplaces, cache_size=cache_size, distribution=dist_kind, tile_shape=(1, 1)
    )
    app = RecordingApp()
    runtime = DPX10Runtime(app, dag, cfg, fault_plans=list(plans))
    return runtime._initialize(PlaceGroup(nplaces)), app


class TestExecuteVertex:
    def test_seed_vertex_lifecycle(self):
        state, app = make_state()
        execute_vertex(state, (0, 0))
        assert state.plane.finished[0, 0]
        assert state.dag.get_vertex(0, 0).get_result() == 0
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
        assert state.plane.finished[0, 0]
        assert state.network.stats.by_pair[(1, 0)] == state.config.value_nbytes
        assert state.executed_by[1] == 1

    def test_fault_trigger_kills_and_raises(self):
        state, app = make_state(plans=[FaultPlan(1, after_completions=1)])
        with pytest.raises(DeadPlaceException) as exc:
            execute_vertex(state, (0, 0))
        assert exc.value.place_id == 1
        assert not state.group.is_alive(1)
        # the completed vertex's result survived on place 0
        assert state.plane.finished[0, 0] and state.plane.owners[0, 0] == 0

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
        assert state.all_done() and state.plane.finished.all()

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
            entered.append(not state.per_vertex)
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
        state = runtime._initialize(PlaceGroup(2))
        assert not state.per_vertex
        # drain the seed tile: nothing will ever become ready
        for queue in state.ready.values():
            queue.clear()
        with pytest.raises(PatternError, match="deadlock"):
            run_inline(state)

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

    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    @pytest.mark.parametrize("tile_shape", [(1, 1), TILE], ids=["per-vertex", "tiled"])
    def test_user_error_stops_the_run_as_raised(self, monkeypatch, engine, tile_shape):
        # an error from compute() must abort every threaded worker and
        # surface unchanged, as on inline — not strand the other workers
        # waiting on the failed unit. A watchdog aborts a stuck run, so a
        # hang fails the test instead of holding it.
        import threading

        from repro.core import worker

        states, fired = [], []
        real_init = worker.ExecutionState.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            states.append(self)

        def abort():
            fired.append(True)
            for state in states:
                state.abort_event.set()

        monkeypatch.setattr(worker.ExecutionState, "__init__", init)
        cfg = DPX10Config(engine=engine, nplaces=2, tile_shape=tile_shape)
        watchdog = threading.Timer(10, abort)
        watchdog.start()
        try:
            with pytest.raises(ValueError, match="compute failed at"):
                DPX10Runtime(FailingApp(), GridDag(12, 12), cfg).run()
        finally:
            watchdog.cancel()
        assert not fired

    def test_threaded_tiled_race_stops_the_run(self):
        # a race diagnostic inside one tile must abort every worker, not
        # strand the others waiting on that tile's successors
        app, dag = undeclared_read_target()
        cfg = DPX10Config(nplaces=2, engine="threaded", tile_shape=TILE, sanitize=True)
        with pytest.raises(DependencyRaceError):
            DPX10Runtime(app, dag, cfg).run()


class TestPerPlaceState:
    """Per-place state nothing reads is not built: placement RNGs are
    seeded on their first draw, wakeups only for threaded workers."""

    @pytest.fixture
    def seeded(self, monkeypatch):
        from repro.core import worker

        calls = []
        real = worker.seeded_rng

        def spy(*key):
            calls.append(key)
            return real(*key)

        monkeypatch.setattr(worker, "seeded_rng", spy)
        return calls

    @pytest.mark.parametrize(
        "cfg",
        [dict(engine="mp", nplaces=2), dict(tile_shape=(1, 1), nplaces=3)],
        ids=["planned-mp", "inline-local"],
    )
    def test_no_generator_unless_a_strategy_draws(self, seeded, cfg):
        dag = DiagonalDag(12, 12)
        report = DPX10Runtime(
            MixApp(), dag, DPX10Config(**cfg), fault_plans=[FaultPlan(1, at_fraction=0.5)]
        ).run()
        assert report.recoveries == 1
        assert seeded == []

    def test_random_strategy_seeds_each_place_once(self, seeded):
        state, _ = make_state(nplaces=3)
        state.strategy = make_strategy("random")
        run_inline(state)
        # the same seeds as ever (the parity battery pins the placements)
        assert sorted(seeded) == [(0, "scheduler", p) for p in range(3)]
        assert sum(state.executed_by.values()) == 16

    def test_conditions_only_for_threaded_workers(self):
        state, _ = make_state()
        run_inline(state)
        assert state.conds == {}
