"""Tests for unbounded knapsack (custom same-row-jump pattern)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apgas.failure import FaultPlan
from repro.apps.unbounded_knapsack import (
    UnboundedKnapsackDag,
    solve_unbounded_knapsack,
    unbounded_knapsack_serial,
)
from repro.core.config import DPX10Config
from repro.errors import PatternError

CFG = DPX10Config(nplaces=3)


class TestPattern:
    def test_validates(self):
        UnboundedKnapsackDag([2, 3, 5], 11).validate()

    def test_same_row_jump(self):
        from repro.core.api import VertexId

        d = UnboundedKnapsackDag([3], 9)
        assert VertexId(1, 4) in d.get_dependency(1, 7)  # take edge in-row
        assert VertexId(0, 7) in d.get_dependency(1, 7)  # skip edge above

    def test_bad_weights_rejected(self):
        with pytest.raises(PatternError):
            UnboundedKnapsackDag([0], 5)
        with pytest.raises(PatternError):
            UnboundedKnapsackDag([], 5)

    def test_static_order_is_topological(self):
        # the take-edge points left within the row, the skip-edge up:
        # row-major is a topological order of the pattern
        d = UnboundedKnapsackDag([2, 5], 12)
        order = [(i, j) for i in range(d.height) for j in range(d.width)]
        pos = {c: k for k, c in enumerate(order)}
        for i, j in order:
            for dep in d.get_dependency(i, j):
                assert pos[(dep.i, dep.j)] < pos[(i, j)]

    @settings(max_examples=25, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        capacity=st.integers(0, 14),
    )
    def test_property_validates(self, weights, capacity):
        UnboundedKnapsackDag(weights, capacity).validate()


class TestApp:
    def test_classic_coin_change_style(self):
        # items (w=2, v=3) and (w=3, v=5): capacity 7 -> 2+2+3 = 11
        app, _ = solve_unbounded_knapsack([2, 3], [3, 5], 7, CFG)
        assert app.best_value == 11

    def test_repetition_beats_single_copy(self):
        from repro.apps.knapsack import solve_knapsack

        w, v, cap = [3], [10], 9
        unbounded, _ = solve_unbounded_knapsack(w, v, cap, CFG)
        zero_one, _ = solve_knapsack(w, v, cap, CFG)
        assert unbounded.best_value == 30
        assert zero_one.best_value == 10

    def test_zero_capacity(self):
        app, _ = solve_unbounded_knapsack([2], [5], 0, CFG)
        assert app.best_value == 0

    def test_survives_fault(self):
        w, v = [2, 5, 7], [3, 8, 11]
        app, rep = solve_unbounded_knapsack(
            w, v, 20, CFG, fault_plans=[FaultPlan(2, at_fraction=0.5)]
        )
        assert app.best_value == unbounded_knapsack_serial(w, v, 20)[-1, -1]
        assert rep.recoveries == 1

    @pytest.mark.parametrize("engine", ["inline", "threaded", "mp"])
    def test_engines_agree(self, engine):
        w, v = [2, 3, 4], [3, 5, 9]
        app, _ = solve_unbounded_knapsack(
            w, v, 13, DPX10Config(nplaces=2, engine=engine)
        )
        assert app.best_value == unbounded_knapsack_serial(w, v, 13)[-1, -1]

    def test_static_schedule(self):
        # the in-row take-edge crosses tile columns: tiles must be
        # scheduled left to right within a tile row
        w, v = [2, 3], [3, 5]
        app, _ = solve_unbounded_knapsack(
            w, v, 15, DPX10Config(nplaces=2, tile_shape=(2, 4))
        )
        assert app.best_value == unbounded_knapsack_serial(w, v, 15)[-1, -1]

    @settings(max_examples=15, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        data=st.data(),
        capacity=st.integers(0, 16),
    )
    def test_property_matches_oracle(self, weights, data, capacity):
        values = data.draw(
            st.lists(st.integers(1, 20), min_size=len(weights), max_size=len(weights))
        )
        app, _ = solve_unbounded_knapsack(weights, values, capacity, CFG)
        assert (
            app.best_value
            == unbounded_knapsack_serial(weights, values, capacity)[-1, -1]
        )
