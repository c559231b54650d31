"""Ablation: DAG distribution (the Refinements' "Distribution of DAG").

The paper's default splices by column; Figure 6's recovery example splits
by row, and the Figure 10(d) discussion blames 0/1KP's weaker scaling on
its dependency shape "given the same data distribution (divided by row)".
This benchmark measures how the splicing axis interacts with each
pattern's dependency directions — real-runtime communication volume and
simulated makespan.
"""

import os

import pytest

from repro.apps.knapsack import make_knapsack_instance, solve_knapsack
from repro.apps.mtp import make_mtp_weights, solve_mtp
from repro.bench import format_series, write_series
from repro.bench.figures import sim_dag_for
from repro.core.config import DPX10Config
from repro.sim import ClusterSpec, CostModel, simulate

DISTS = ["block_rows", "block_cols", "block_cyclic"]


def test_distribution_traffic_real_runtime(benchmark, results_dir):
    """Knapsack's two deps both point into the previous row, so row
    splicing pays only at band boundaries while column splicing pays for
    every jump ``(i-1, j-w)`` that leaves the band — the dependency-shape
    sensitivity behind the paper's "0/1KP requires more communications due
    to its dependency relationship"."""
    w, v = make_knapsack_instance(40, 60, seed=2)

    def sweep():
        out = {}
        for dist in DISTS:
            cfg = DPX10Config(
                nplaces=4,
                distribution=dist,
                dist_block=(4, 4),
                cache_size=0,
                tile_shape=(1, 1),
            )
            app, rep = solve_knapsack(w, v, 60, cfg)
            out[dist] = (rep.network_bytes, app.best_value)
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    values = {v for _, v in data.values()}
    assert len(values) == 1  # distribution never changes the answer
    # the paper's default column splicing is the expensive axis for KP:
    # every data-dependent jump that leaves the column band is a fetch
    assert data["block_cols"][0] > data["block_rows"][0]
    write_series(
        os.path.join(results_dir, "ablation_distribution.txt"),
        format_series(
            "Ablation: distribution axis (0/1KP 41x61, 4 places, no cache)",
            "dist",
            DISTS,
            {"net bytes": [data[d][0] for d in DISTS]},
            unit="",
            precision=0,
        ),
    )


def test_distribution_grid_prefers_matching_axis(benchmark):
    """MTP's grid stencil is symmetric; row and column splicing should be
    near-equivalent (sanity for the axis handling)."""
    wd, wr = make_mtp_weights(40, 40, seed=4)

    def sweep():
        out = {}
        for dist in ("block_rows", "block_cols"):
            cfg = DPX10Config(
                nplaces=4, distribution=dist, cache_size=0, tile_shape=(1, 1)
            )
            _, rep = solve_mtp(wd, wr, cfg)
            out[dist] = rep.network_bytes
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    hi, lo = max(data.values()), min(data.values())
    assert hi <= lo * 1.3  # symmetric stencil, near-symmetric traffic


def test_distribution_simulated_makespan(benchmark):
    cost = CostModel.for_app("swlag")
    dag = sim_dag_for("swlag", 4_000_000)
    cluster = ClusterSpec.tianhe1a(6)

    def sweep():
        return {
            dist: simulate(dag, cluster, cost, tile_size=24, dist=dist).makespan
            for dist in ("block_cols", "block_rows")
        }

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # the diagonal stencil crosses both axes: both splicings work, within 2x
    hi, lo = max(data.values()), min(data.values())
    assert hi < 2 * lo
