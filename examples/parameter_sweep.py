#!/usr/bin/env python3
"""Exploring the configuration space with the Sweep utility.

Grid-sweeps cache size x scheduler over a Smith-Waterman workload on the
real runtime, prints the CSV, and highlights the best communication
configuration — the follow-up experiment a user runs after reading the
paper's Refinements section.

Run:  python examples/parameter_sweep.py
"""

from repro import DPX10Config, solve_sw
from repro.bench import Sweep, to_csv
from repro.util.rng import seeded_rng


def main() -> None:
    rng = seeded_rng(99, "sweep-example")
    x = "".join(rng.choice(list("ACGT"), size=90))
    y = "".join(rng.choice(list("ACGT"), size=90))

    def run(cache_size: int, scheduler: str):
        cfg = DPX10Config(
            tile_shape=(1, 1),  # both knobs act on the per-vertex path
            nplaces=4,
            cache_size=cache_size,
            scheduler=scheduler,
            distribution="block_rows",
            seed=1,
        )
        app, report = solve_sw(x, y, cfg)
        return {
            "score": app.best_score,
            "net_bytes": report.network_bytes,
            "hit_rate": round(report.cache_hit_rate, 3),
            "wall_s": round(report.wall_time, 3),
        }

    sweep = Sweep(
        axes={"cache_size": [0, 8, 64], "scheduler": ["local", "mincomm"]},
        run=run,
    )
    rows = sweep.execute()
    print(f"{sweep.size} configurations swept:\n")
    print(to_csv(rows))

    scores = {r["score"] for r in rows}
    assert len(scores) == 1, "every configuration must agree on the answer"
    best = min(rows, key=lambda r: r["net_bytes"])
    print(f"least communication: cache_size={best['cache_size']}, "
          f"scheduler={best['scheduler']} ({best['net_bytes']} bytes, "
          f"{best['hit_rate']:.0%} cache hits)")


if __name__ == "__main__":
    main()
