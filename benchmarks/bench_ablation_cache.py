"""Ablation: the worker's FIFO remote-vertex cache (Refinements: "Cache
size ... can be specified to achieve maximum benefit").

Real-runtime sweep: cross-place traffic and hit rate vs cache capacity;
simulated: cached vs cacheless makespan at cluster scale.
"""

import os

import pytest

from repro.apps.smith_waterman import solve_sw
from repro.bench import format_series, write_series
from repro.bench.figures import sim_dag_for
from repro.core.config import DPX10Config
from repro.sim import ClusterSpec, CostModel, simulate
from repro.util.rng import seeded_rng

CACHE_SIZES = [0, 2, 8, 64, 512]


def _dna(n, seed):
    return "".join(seeded_rng(seed, "cache-dna").choice(list("ACGT"), size=n))


def test_cache_size_sweep_real_runtime(benchmark, results_dir):
    x, y = _dna(100, 1), _dna(100, 2)

    def sweep():
        out = {}
        for size in CACHE_SIZES:
            cfg = DPX10Config(
                nplaces=4,
                cache_size=size,
                distribution="block_rows",
                tile_shape=(1, 1),
            )
            _, report = solve_sw(x, y, cfg)
            out[size] = (report.network_bytes, report.cache_hit_rate)
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    bytes_series = [data[s][0] for s in CACHE_SIZES]
    hit_series = [data[s][1] for s in CACHE_SIZES]
    # no cache -> no hits; growing capacity never increases traffic
    assert data[0][1] == 0.0
    assert all(b >= a for a, b in zip(bytes_series[1:], bytes_series[:-1])) or (
        bytes_series == sorted(bytes_series, reverse=True)
    )
    assert bytes_series[-1] < bytes_series[0]
    assert hit_series[-1] > 0.3
    write_series(
        os.path.join(results_dir, "ablation_cache.txt"),
        format_series(
            "Ablation: FIFO cache capacity (SW 100x100, 4 places, block rows)",
            "capacity",
            CACHE_SIZES,
            {"net bytes": bytes_series, "hit rate": hit_series},
            unit="",
        ),
    )


def test_cache_simulated_makespan(benchmark, scale):
    cost = CostModel.for_app("swlag")
    dag = sim_dag_for("swlag", 4_000_000)
    cluster = ClusterSpec.tianhe1a(8)

    def run():
        cached = simulate(dag, cluster, cost, tile_size=16).makespan
        cacheless = simulate(dag, cluster, cost.cacheless(), tile_size=16).makespan
        return cached, cacheless

    cached, cacheless = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cached < cacheless
