#!/usr/bin/env python3
"""A 2D/1D application: matrix-chain ordering on the triangular pattern.

The paper focuses on 2D/0D recurrences and notes that DPX10 "can also
express the type of 2D/iD (i >= 1), nonetheless, the performance is less
than satisfactory". This example shows both halves of that sentence: the
expressiveness (the full matrix-chain DP runs unmodified, faults included)
and the cost (per-vertex time and communication vs a 2D/0D app of the
same size).

Run:  python examples/matrix_chain_2d1d.py
"""

from repro import (
    DPX10Config,
    FaultPlan,
    make_chain_dims,
    solve_lcs,
    solve_matrix_chain,
)


def main() -> None:
    # the CLRS textbook chain
    dims = [30, 35, 15, 5, 10, 20, 25]
    app, _ = solve_matrix_chain(dims, DPX10Config(nplaces=3))
    print(f"chain dims {dims}")
    print(f"minimal multiplications: {app.min_multiplications} (expected 15125)\n")

    # expressiveness: a bigger chain, with a mid-run node failure (on the
    # per-vertex reference path, tile_shape=(1, 1): a chain this small
    # is one planned tile, which nothing can interrupt)
    dims = make_chain_dims(24, seed=9)
    plans = [FaultPlan(place_id=2, at_fraction=0.5)]
    cfg = DPX10Config(nplaces=4, tile_shape=(1, 1))
    app, report = solve_matrix_chain(dims, cfg, fault_plans=plans)
    print(f"24-matrix chain with one injected fault:")
    print(f"  minimal multiplications: {app.min_multiplications}")
    print(f"  recoveries: {report.recoveries}, recomputed: {report.recomputed}\n")

    # the cost: per-vertex time vs a 2D/0D app with the same vertex count
    n = 24
    cfg = DPX10Config(nplaces=3, tile_shape=(1, 1))
    _, rep_2d1d = solve_matrix_chain(make_chain_dims(n, seed=1), cfg)
    x = "A" * (n - 1)
    _, rep_2d0d = solve_lcs(x, x, cfg)
    t1 = rep_2d1d.wall_time / rep_2d1d.active_vertices
    t0 = rep_2d0d.wall_time / rep_2d0d.active_vertices
    print("per-vertex cost (same-order vertex counts):")
    print(f"  2D/1D triangular : {t1 * 1e6:8.1f} us/vertex")
    print(f"  2D/0D diagonal   : {t0 * 1e6:8.1f} us/vertex")
    print(f"  -> the paper's 'less than satisfactory' factor: {t1 / t0:.1f}x")


if __name__ == "__main__":
    main()
