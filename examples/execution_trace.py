#!/usr/bin/env python3
"""Profiling a run with the execution trace.

Enables ``DPX10Config(trace=True)`` on a Smith-Waterman run and prints
what a performance engineer looks at first: per-place utilization, the
wavefront's completion profile (narrow at the corners, wide in the
middle), and an ASCII Gantt chart of place activity — then contrasts the
load profile of a balanced (diagonal) DAG with a skewed (triangular) one.

Run:  python examples/execution_trace.py
"""

from repro import DPX10Config, solve_lps, solve_sw
from repro.util.rng import seeded_rng


def main() -> None:
    rng = seeded_rng(11, "trace-example")
    x = "".join(rng.choice(list("ACGT"), size=120))
    y = "".join(rng.choice(list("ACGT"), size=120))

    # tile_shape=(1, 1) is the per-vertex reference path: one trace event
    # per cell. The default (planned tiles) logs one event per tile.
    cfg = DPX10Config(nplaces=4, trace=True, tile_shape=(1, 1))
    app, report = solve_sw(x, y, cfg)
    trace = report.trace
    print(f"Smith-Waterman {len(x)}x{len(y)}: best score {app.best_score}, "
          f"{len(trace)} vertices traced\n")

    print("per-place utilization:")
    for place, frac in trace.utilization().items():
        bar = "#" * int(frac * 40)
        print(f"  place {place}: {frac:6.1%} |{bar}")

    print("\nwavefront completion profile (vertices per time bucket):")
    profile = trace.completion_profile(buckets=15)
    peak = max(profile) or 1
    for k, count in enumerate(profile):
        print(f"  t{k:02d} {'*' * int(count / peak * 40):40s} {count}")

    print("\nplace activity (Gantt):")
    print(trace.render_gantt(width=56))

    # a skewed DAG for contrast: the LPS triangle loads later places more
    s = "".join(rng.choice(list("ABCD"), size=90))
    cfg = DPX10Config(nplaces=4, trace=True, tile_shape=(1, 1))
    _, rep_skew = solve_lps(s, cfg)
    print("\nskewed (triangular LPS) executed-per-place:",
          rep_skew.trace.executed_per_place())


if __name__ == "__main__":
    main()
