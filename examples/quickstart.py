#!/usr/bin/env python3
"""Quickstart: the paper's Figure 1 walk-through, then a larger run.

Find the longest common subsequence of "ABC" and "DBC" with DPX10: pick
the built-in diagonal DAG pattern, implement ``compute()`` (done for you
in :class:`repro.LCSApp`), and run. The framework distributes the vertex
matrix over places, schedules the wavefront, and hands the bound DAG to
``app_finished()`` for backtracking.

Run:  python examples/quickstart.py
"""

from repro import DPX10Config, solve_lcs


def figure1_example() -> None:
    print("== Paper Figure 1: LCS of 'ABC' and 'DBC' ==")
    app, report = solve_lcs("ABC", "DBC")
    print(f"  LCS length   : {app.length}")
    print(f"  LCS          : {app.subsequence!r}")
    print(f"  vertices run : {report.completions}")
    assert app.subsequence == "BC"


def larger_run() -> None:
    print("\n== A 400x300 LCS across 4 places ==")
    x = "ACGTGCA" * 57  # 399 chars
    y = "ACTGGCAT" * 37  # 296 chars
    # no tile_shape: the runtime plans tiles and a generated kernel.
    # tile_shape=(1, 1) would run the paper's per-vertex path instead.
    config = DPX10Config(nplaces=4, engine="inline", distribution="block_cols")
    app, report = solve_lcs(x, y, config)
    print(f"  LCS length        : {app.length}")
    print(f"  plan              : {report.plan}")
    print(f"  vertices computed : {report.completions}")
    print(f"  places            : {config.nplaces}")
    print(f"  cross-place bytes : {report.network_bytes}")
    print(f"  wall time         : {report.wall_time:.2f}s")


if __name__ == "__main__":
    figure1_example()
    larger_run()
