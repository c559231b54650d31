"""Integration: recovery correctness under faults at arbitrary points.

Every config pins ``tile_shape=(1, 1)``: the paper's per-vertex recovery
(and ``restore_manner``) is the subject, and on inputs this small a
planned run is one tile, which no mid-run kill can interrupt.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apgas.failure import FaultPlan
from repro.apps.lcs import solve_lcs
from repro.apps.knapsack import make_knapsack_instance, solve_knapsack
from repro.apps.lps import solve_lps
from repro.apps.serial import knapsack_matrix, lcs_matrix, lps_matrix
from repro.core.config import DPX10Config
from repro.errors import PlaceZeroDeadError

X, Y = "ABCBDABACGTACGT", "BDCABAACGGTTAC"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])


class TestSingleFault:
    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    @pytest.mark.parametrize("victim", [1, 2, 3])
    def test_lcs_answer_preserved(self, engine, victim):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=4, engine=engine)
        app, rep = solve_lcs(
            X, Y, cfg, fault_plans=[FaultPlan(victim, at_fraction=0.5)]
        )
        assert app.length == EXPECT
        assert rep.recoveries == 1
        assert rep.final_alive_places == 3

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_fault_at_any_fraction(self, fraction):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=3)
        app, rep = solve_lcs(
            X, Y, cfg, fault_plans=[FaultPlan(2, at_fraction=fraction)]
        )
        assert app.length == EXPECT
        # a fault at fraction 1.0 can fire only on the very last completion
        assert rep.recoveries in (0, 1)

    @pytest.mark.parametrize("restore", ["discard", "copy"])
    def test_restore_manners_agree(self, restore):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=4, restore_manner=restore)
        app, _ = solve_lcs(X, Y, cfg, fault_plans=[FaultPlan(2, at_fraction=0.4)])
        assert app.length == EXPECT


class TestMultipleFaults:
    def test_cascade_down_to_one_place(self):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=4)
        plans = [
            FaultPlan(1, at_fraction=0.2),
            FaultPlan(2, at_fraction=0.5),
            FaultPlan(3, at_fraction=0.8),
        ]
        app, rep = solve_lcs(X, Y, cfg, fault_plans=plans)
        assert app.length == EXPECT
        assert rep.final_alive_places == 1
        assert rep.recoveries == 3

    def test_simultaneous_faults(self):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=5)
        plans = [
            FaultPlan(2, after_completions=40),
            FaultPlan(3, after_completions=40),
        ]
        app, rep = solve_lcs(X, Y, cfg, fault_plans=plans)
        assert app.length == EXPECT
        assert rep.final_alive_places == 3


class TestOtherAppsUnderFaults:
    def test_lps(self):
        s = "BBABCBCABBACB"
        app, _ = solve_lps(
            s,
            DPX10Config(tile_shape=(1, 1), nplaces=3),
            fault_plans=[FaultPlan(1, at_fraction=0.5)],
        )
        assert app.length == lps_matrix(s)[0, len(s) - 1]

    def test_knapsack(self):
        w, v = make_knapsack_instance(8, 20, seed=3)
        app, _ = solve_knapsack(
            w,
            v,
            20,
            DPX10Config(tile_shape=(1, 1), nplaces=3),
            fault_plans=[FaultPlan(2, at_fraction=0.5)],
        )
        assert app.best_value == knapsack_matrix(w, v, 20)[-1, -1]


class TestPlaceZeroLimitation:
    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    def test_faithful_to_resilient_x10(self, engine):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=3, engine=engine)
        with pytest.raises(PlaceZeroDeadError):
            solve_lcs(X, Y, cfg, fault_plans=[FaultPlan(0, at_fraction=0.3)])


@settings(max_examples=25, deadline=None)
@given(
    completions=st.integers(0, 200),
    victim=st.integers(1, 2),
    dist=st.sampled_from(["block_rows", "block_cols", "cyclic_cols"]),
)
def test_property_fault_at_any_completion_count(completions, victim, dist):
    """Killing any non-zero place after any number of completions still
    yields the oracle answer."""
    cfg = DPX10Config(tile_shape=(1, 1), nplaces=3, distribution=dist)
    app, _ = solve_lcs(
        X, Y, cfg, fault_plans=[FaultPlan(victim, after_completions=completions)]
    )
    assert app.length == EXPECT
