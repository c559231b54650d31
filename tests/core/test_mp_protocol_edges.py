"""Edge cases of the mp engine's protocol and level computation."""

import numpy as np
import pytest

from repro.core.api import DPX10App, VertexId
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.mp_engine import _topological_levels, run_mp
from repro.core.runtime import DPX10Runtime
from repro.errors import DPX10Error
from repro.patterns import GridDag, RowChainDag


class AddApp(DPX10App[int]):
    value_dtype = np.int64

    def compute(self, i, j, vertices):
        return sum(v.get_result() for v in vertices) + 1


class TupleApp(DPX10App):
    """Object-valued app; must be module-level to pickle across the pipe."""

    value_dtype = None

    def compute(self, i, j, vertices):
        inner = max((v.get_result()[0] for v in vertices), default=0)
        return (inner + 1, f"cell{i}{j}")


class TestLevels:
    def test_row_chain_levels_are_columns(self):
        levels = _topological_levels(RowChainDag(3, 4))
        assert sorted(levels[0]) == [(0, 0), (1, 0), (2, 0)]
        assert len(levels) == 4

    def test_cyclic_pattern_detected(self):
        class Cyclic(Dag):
            def get_dependency(self, i, j):
                return [VertexId(i, 1 - j)]

            def get_anti_dependency(self, i, j):
                return [VertexId(i, 1 - j)]

        with pytest.raises(DPX10Error, match="cyclic"):
            _topological_levels(Cyclic(1, 2))

    def test_single_cell(self):
        levels = _topological_levels(GridDag(1, 1))
        assert levels == [[(0, 0)]]


class TestRunMP:
    def test_direct_api(self):
        app = AddApp()
        dag = GridDag(4, 4)
        cfg = DPX10Config(nplaces=2, engine="mp", tile_shape=(1, 1))
        results, stats = run_mp(app, dag, cfg)
        assert len(results) == 16
        assert stats.completions == 16
        assert stats.levels == 7  # anti-diagonals of 4x4
        assert stats.final_alive_places == 2

    def test_more_places_than_columns(self):
        app = AddApp()
        dag = GridDag(3, 2)
        results, stats = run_mp(app, dag, DPX10Config(nplaces=5, engine="mp"))
        assert len(results) == 6

    def test_object_values_cross_processes(self):
        app = TupleApp()
        dag = GridDag(3, 3)
        cfg = DPX10Config(nplaces=2, engine="mp")
        report = DPX10Runtime(app, dag, cfg).run()
        assert dag.get_vertex(2, 2).get_result() == (5, "cell22")
        assert report.completions == 9
