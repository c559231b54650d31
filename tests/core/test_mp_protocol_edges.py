"""Edge cases of the mp engine's protocol and level computation."""

import numpy as np
import pytest

from repro.core.api import DPX10App, VertexId
from repro.core.config import DPX10Config
from repro.core.dag import Dag
from repro.core.runtime import DPX10Runtime
from repro.errors import DPX10Error
from repro.obs.metrics import scalar
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


def _finished(dag):
    """How many cells the run bound to ``dag`` holds (AddApp values are >= 1)."""
    return int(np.count_nonzero(dag.to_array(fill=0, dtype=np.int64)))


class TestLevels:
    def test_row_chain_levels_are_columns(self):
        levels = RowChainDag(3, 4).coarsen(1, 1).levels()
        assert sorted(levels[0]) == [(0, 0), (1, 0), (2, 0)]
        assert len(levels) == 4

    def test_cyclic_pattern_detected(self):
        class Cyclic(Dag):
            def get_dependency(self, i, j):
                return [VertexId(i, 1 - j)]

            def get_anti_dependency(self, i, j):
                return [VertexId(i, 1 - j)]

        with pytest.raises(DPX10Error, match="cyclic"):
            Cyclic(1, 2).coarsen(1, 1).levels()

    def test_single_cell(self):
        levels = GridDag(1, 1).coarsen(1, 1).levels()
        assert levels == [[(0, 0)]]


class TestRunMP:
    def test_direct_api(self):
        app = AddApp()
        dag = GridDag(4, 4)
        cfg = DPX10Config(nplaces=2, engine="mp", tile_shape=(1, 1), metrics=True)
        stats = DPX10Runtime(app, dag, cfg).run()
        assert _finished(dag) == 16
        assert stats.completions == 16
        assert scalar(stats.metrics, "dpx10_mp_levels_total") == 7  # anti-diagonals of 4x4
        assert stats.final_alive_places == 2

    def test_more_places_than_columns(self):
        app = AddApp()
        dag = GridDag(3, 2)
        DPX10Runtime(app, dag, DPX10Config(nplaces=5, engine="mp")).run()
        assert _finished(dag) == 6

    def test_object_values_cross_processes(self):
        app = TupleApp()
        dag = GridDag(3, 3)
        cfg = DPX10Config(nplaces=2, engine="mp")
        report = DPX10Runtime(app, dag, cfg).run()
        assert dag.get_vertex(2, 2).get_result() == (5, "cell22")
        assert report.completions == 9
