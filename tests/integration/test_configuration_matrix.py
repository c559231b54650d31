"""Integration: the framework result is invariant across every runtime knob.

The answer to a DP problem must not depend on the engine, the scheduler,
the distribution, the cache size, or the number of places — these only
move work and data around. Each test runs the same workload across one
axis of the configuration space and checks oracle equality.

Every config pins ``tile_shape=(1, 1)``: the paper's knobs act per
vertex, and a planned run of inputs this small is a single tile.
"""

import pytest

from repro.apps.lcs import solve_lcs
from repro.apps.knapsack import make_knapsack_instance, solve_knapsack
from repro.apps.serial import knapsack_matrix, lcs_matrix
from repro.core.config import DPX10Config

X, Y = "ABCBDABACGTACGT", "BDCABAACGGTTAC"
EXPECT = int(lcs_matrix(X, Y)[-1, -1])


class TestEngineAxis:
    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    @pytest.mark.parametrize("nplaces", [1, 2, 5])
    def test_lcs(self, engine, nplaces):
        cfg = DPX10Config(
            tile_shape=(1, 1), nplaces=nplaces, engine=engine, threads_per_place=2
        )
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT


class TestSchedulerAxis:
    @pytest.mark.parametrize("scheduler", ["local", "random", "mincomm"])
    def test_lcs(self, scheduler):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=4, scheduler=scheduler, seed=3)
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT

    @pytest.mark.parametrize("scheduler", ["local", "random", "mincomm"])
    def test_threaded(self, scheduler):
        cfg = DPX10Config(
            tile_shape=(1, 1), nplaces=3, engine="threaded", scheduler=scheduler
        )
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT


class TestDistributionAxis:
    @pytest.mark.parametrize(
        "dist",
        ["block_rows", "block_cols", "block_flat", "cyclic_rows", "cyclic_cols", "block_cyclic"],
    )
    def test_lcs(self, dist):
        cfg = DPX10Config(
            tile_shape=(1, 1), nplaces=3, distribution=dist, dist_block=(2, 2)
        )
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT

    def test_custom_distribution(self):
        from repro.dist.dist import Dist

        cfg = DPX10Config(
            tile_shape=(1, 1),
            nplaces=3,
            custom_dist=lambda region, alive: Dist.custom(
                region, alive, lambda i, j: alive[(i * 7 + j) % len(alive)]
            ),
        )
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT


class TestCacheAxis:
    @pytest.mark.parametrize("cache_size", [0, 1, 4, 1024])
    def test_lcs(self, cache_size):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=3, cache_size=cache_size)
        app, _ = solve_lcs(X, Y, cfg)
        assert app.length == EXPECT

    def test_cache_hit_rate_monotone_in_capacity(self):
        rates = []
        for size in (0, 2, 64):
            cfg = DPX10Config(
                tile_shape=(1, 1),
                nplaces=3,
                cache_size=size,
                distribution="block_rows",
            )
            _, rep = solve_lcs(X, Y, cfg)
            rates.append(rep.cache_hit_rate)
        assert rates[0] == 0.0
        assert rates[2] >= rates[1] >= rates[0]


class TestKnapsackAcrossKnobs:
    """The irregular pattern exercises data-dependent cross-place edges."""

    W, V = make_knapsack_instance(9, 25, seed=7)
    EXPECT_KP = int(knapsack_matrix(W, V, 25)[-1, -1])

    @pytest.mark.parametrize("engine", ["inline", "threaded"])
    @pytest.mark.parametrize("dist", ["block_rows", "block_cols", "cyclic_cols"])
    def test_knapsack(self, engine, dist):
        cfg = DPX10Config(
            tile_shape=(1, 1), nplaces=3, engine=engine, distribution=dist
        )
        app, _ = solve_knapsack(self.W, self.V, 25, cfg)
        assert app.best_value == self.EXPECT_KP


class TestDeterminism:
    def test_inline_runs_identical(self):
        cfg = DPX10Config(tile_shape=(1, 1), nplaces=3, scheduler="random", seed=42)
        _, rep1 = solve_lcs(X, Y, cfg)
        _, rep2 = solve_lcs(X, Y, cfg)
        assert rep1.completions == rep2.completions
        assert rep1.network_bytes == rep2.network_bytes
        assert rep1.cache_hits == rep2.cache_hits

    def test_seed_changes_random_scheduling(self):
        reps = []
        for seed in (1, 2):
            cfg = DPX10Config(
                nplaces=4, scheduler="random", seed=seed, tile_shape=(1, 1)
            )
            _, rep = solve_lcs(X, Y, cfg)
            reps.append(rep.network_bytes)
        # different placement decisions almost surely move different bytes
        assert reps[0] != reps[1]
