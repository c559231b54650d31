"""The runtime dependency-race sanitizer (DPX10Config(sanitize=True))."""

import pytest

from repro.analysis import sanitize
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.errors import DependencyRaceError
from repro.patterns import GridDag

from tests.analysis.fixtures import (
    UndeclaredReadApp,
    over_anti_dag,
    undeclared_read_target,
)


def _run(app, dag, **kw):
    return DPX10Runtime(app, dag, config=DPX10Config(nplaces=2, **kw)).run()


class TestGuardPrimitives:
    def test_no_guard_by_default(self):
        assert not sanitize.guard_active()
        assert sanitize._active_guards == 0

    def test_guard_scopes_and_counts(self):
        with sanitize.compute_guard((3, 3), [(2, 3), (3, 2)], exec_place=0):
            assert sanitize.guard_active()
            assert sanitize._active_guards == 1
            sanitize.check_read(2, 3)  # declared: fine
            with pytest.raises(DependencyRaceError):
                sanitize.check_read(0, 0)
        assert not sanitize.guard_active()
        assert sanitize._active_guards == 0

    def test_guard_released_on_error(self):
        with pytest.raises(RuntimeError):
            with sanitize.compute_guard((1, 1), [(0, 1)], exec_place=0):
                raise RuntimeError("boom")
        assert sanitize._active_guards == 0

    def test_diagnostic_fields(self):
        with sanitize.compute_guard((5, 5), [(4, 5)], exec_place=1):
            with pytest.raises(DependencyRaceError) as ei:
                sanitize.check_read(2, 3, owner_place=0)
        e = ei.value
        assert e.code == "DP301"
        assert e.reader == (5, 5)
        assert e.cell == (2, 3)
        assert e.offset == (-3, -2)
        assert e.owner_place == 0
        assert e.exec_place == 1
        msg = str(e)
        assert "(5, 5)" in msg and "(2, 3)" in msg and "place 0" in msg


class TestSanitizedRuns:
    def test_undeclared_read_raises_with_diagnostics(self):
        app, dag = undeclared_read_target()
        with pytest.raises(DependencyRaceError) as ei:
            _run(app, dag, sanitize=True, tile_shape=(1, 1))
        e = ei.value
        assert e.code == "DP301"
        assert e.offset == (-2, 0)  # the fixture reads (i-2, j)
        assert e.cell is not None and e.reader is not None
        assert e.owner_place is not None and e.exec_place is not None

    def test_unsanitized_run_completes_silently(self):
        app, dag = undeclared_read_target()
        # the per-vertex reference serves any finished cell; on a planned
        # tile the same undeclared read is a KeyError off the plane
        report = _run(app, dag, sanitize=False, tile_shape=(1, 1))
        assert report.completions == dag.size

    def test_clean_app_passes_sanitized(self):
        class Clean(UndeclaredReadApp):
            def compute(self, i, j, vertices):
                return sum(v.get_result() for v in vertices) + 1

        dag = GridDag(8, 8)
        report = _run(Clean(dag), dag, sanitize=True)
        assert report.completions == dag.size

    def test_sanitized_threaded_engine(self):
        app, dag = undeclared_read_target()
        with pytest.raises(DependencyRaceError):
            _run(app, dag, sanitize=True, engine="threaded")

    def test_under_declared_anti_dependency_dp302(self):
        # the over-declared anti edge releases (i, 2) before its declared
        # dependency (i, 1) finished; the sanitizer names the race
        from repro.core.api import DPX10App

        class Sum(DPX10App):
            value_dtype = None

            def compute(self, i, j, vertices):
                return sum(v.get_result() for v in vertices) + 1

        dag = over_anti_dag()
        with pytest.raises(DependencyRaceError) as ei:
            DPX10Runtime(
                Sum(),
                dag,
                config=DPX10Config(nplaces=1, sanitize=True, tile_shape=(1, 1)),
            ).run()
        e = ei.value
        assert e.code == "DP302"
        assert e.cell is not None and e.reader is not None

    def test_remote_cache_reads_checked(self):
        from repro.core.cache import RemoteCache

        cache = RemoteCache(8)
        cache.put((0, 0), 42)
        with sanitize.compute_guard((4, 4), [(3, 4)], exec_place=0):
            with pytest.raises(DependencyRaceError):
                cache.get((0, 0))
        # outside a guard the same read is unchecked
        hit, value = cache.get((0, 0))
        assert hit and value == 42
