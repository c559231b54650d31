"""Ablation: the three scheduling strategies (paper section VI-C).

"By default, we use a local scheduling strategy ... We also provided
another two methods: random scheduling and minimum communication
scheduling. [MinComm] introduces some extra overhead and should be used in
appropriate scenarios."

Measured on the real runtime: communication volume and wall time per
strategy on the same workload.
"""

import os

import pytest

from repro.apps.lcs import solve_lcs
from repro.bench import format_series, write_series
from repro.core.config import DPX10Config
from repro.util.rng import seeded_rng

STRATEGIES = ["local", "random", "mincomm"]


def _text(n, seed):
    return "".join(seeded_rng(seed, "sched").choice(list("ABCD"), size=n))


def test_scheduler_traffic_ordering(benchmark, results_dir):
    x, y = _text(90, 1), _text(90, 2)

    def sweep():
        out = {}
        for strat in STRATEGIES:
            cfg = DPX10Config(
                nplaces=4,
                scheduler=strat,
                seed=7,
                distribution="block_rows",
                tile_shape=(1, 1),
            )
            app, report = solve_lcs(x, y, cfg)
            out[strat] = (report.network_bytes, report.wall_time, app.length)
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # all strategies agree on the answer
    lengths = {v[2] for v in data.values()}
    assert len(lengths) == 1
    # random placement moves the most data; mincomm never beats local's
    # zero-fetch home placement by more than the write-back volume
    assert data["random"][0] > data["local"][0]
    assert data["mincomm"][0] <= data["random"][0]
    write_series(
        os.path.join(results_dir, "ablation_scheduler.txt"),
        format_series(
            "Ablation: scheduling strategy (LCS 90x90, 4 places, block rows)",
            "strategy",
            STRATEGIES,
            {
                "net bytes": [data[s][0] for s in STRATEGIES],
                "wall s": [data[s][1] for s in STRATEGIES],
            },
            unit="",
        ),
    )
