"""Tiled wavefront execution: tile-shape sweep and per-vertex baseline.

The tile engine (``repro.core.tiling``, ``docs/TILING.md``) replaces the
per-vertex scheduler hot path with one scheduling decision per *tile* and
lets apps that define :meth:`~repro.core.api.DPX10App.compute_tile` run
NumPy kernels over whole tiles. This benchmark measures what that buys on
the two kernel-enabled built-in apps:

* Smith-Waterman (diagonal pattern, antidiagonal kernel sweeps)
* Longest Palindromic Subsequence (interval pattern, k-ascending sweeps)

Two entry points:

* ``pytest benchmarks/bench_tiling.py --benchmark-only`` — the tier-2
  regression form: small matrices, asserts tiling actually wins.
* ``python benchmarks/bench_tiling.py [--quick] [--size N]`` — the CLI
  sweep behind the README's measured-speedup table. ``--quick`` runs a
  CI-sized sweep in a few seconds and is uploaded as a CI artifact.
"""

import argparse
import json
import os
import sys

from repro.apps.lps import solve_lps
from repro.apps.serial import lps_matrix, sw_matrix
from repro.apps.smith_waterman import solve_sw
from repro.bench import format_series, write_series
from repro.core.config import DPX10Config
from repro.util.rng import seeded_rng
from repro.util.timer import Timer

#: tile shapes swept by the CLI; ``(1, 1)`` is the per-vertex baseline
PER_VERTEX = (1, 1)
SWEEP_SHAPES = (PER_VERTEX, (32, 32), (64, 64), (128, 128), (256, 256))


def _random_dna(rng, n: int) -> str:
    return "".join(rng.choice(list("ACGT"), size=n))


def _config(tile_shape, nplaces: int = 4) -> DPX10Config:
    return DPX10Config(nplaces=nplaces, engine="threaded", tile_shape=tile_shape)


def time_sw(s1: str, s2: str, tile_shape) -> tuple[float, int]:
    """Wall seconds + best score for one SW run."""
    with Timer() as t:
        app, _ = solve_sw(s1, s2, _config(tile_shape))
    return t.elapsed, int(app.best_score)


def time_lps(s: str, tile_shape) -> tuple[float, int]:
    """Wall seconds + LPS length for one run."""
    with Timer() as t:
        app, _ = solve_lps(s, _config(tile_shape))
    return t.elapsed, int(app.length)


def test_tiling_speedup(benchmark, results_dir):
    """Tiled SW must beat the per-vertex path even at small scale."""
    rng = seeded_rng(7, "tiling-bench")
    s1, s2 = _random_dna(rng, 512), _random_dna(rng, 512)
    expect = int(sw_matrix(s1, s2).max())

    def sweep():
        base_t, base_score = time_sw(s1, s2, PER_VERTEX)
        tile_t, tile_score = time_sw(s1, s2, (64, 64))
        assert base_score == expect and tile_score == expect
        return {"per-vertex": base_t, "tiled(64,64)": tile_t}

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    speedup = data["per-vertex"] / data["tiled(64,64)"]
    assert speedup > 1.5, f"tiling should win, got {speedup:.2f}x"
    write_series(
        os.path.join(results_dir, "tiling_speedup.txt"),
        format_series(
            f"Tiled vs per-vertex execution (SW 512x512, speedup {speedup:.2f}x)",
            "mode",
            list(data),
            {"wall s": list(data.values())},
            precision=3,
        ),
    )


def run_sweep(size: int, shapes, out_dir: str, verify: bool) -> dict:
    """Time SW and LPS at ``size`` for each tile shape; write table + JSON."""
    rng = seeded_rng(7, "tiling-bench")
    s1, s2 = _random_dna(rng, size), _random_dna(rng, size)
    expect_sw = int(sw_matrix(s1, s2).max()) if verify else None
    expect_lps = int(lps_matrix(s1)[0, -1]) if verify else None

    results = {"size": size, "sw": {}, "lps": {}}
    for shape in shapes:
        label = "per-vertex" if shape == PER_VERTEX else f"{shape[0]}x{shape[1]}"
        sw_t, sw_score = time_sw(s1, s2, shape)
        lps_t, lps_len = time_lps(s1, shape)
        if verify:
            assert sw_score == expect_sw, (label, sw_score, expect_sw)
            assert lps_len == expect_lps, (label, lps_len, expect_lps)
        results["sw"][label] = sw_t
        results["lps"][label] = lps_t
        print(f"  {label:>12}  sw {sw_t:8.3f}s   lps {lps_t:8.3f}s", flush=True)

    labels = list(results["sw"])
    table = format_series(
        f"Tile-shape sweep, SW + LPS {size}x{size}, threaded engine",
        "tile shape",
        labels,
        {
            "SW wall s": [results["sw"][k] for k in labels],
            "LPS wall s": [results["lps"][k] for k in labels],
        },
        precision=3,
    )
    print(table)
    write_series(os.path.join(out_dir, "tiling_sweep.txt"), table)
    with open(os.path.join(out_dir, "tiling_sweep.json"), "w") as fh:
        json.dump(results, fh, indent=2)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized sweep (256^2, two shapes) that finishes in seconds",
    )
    parser.add_argument(
        "--size", type=int, default=1024, help="matrix side length (default 1024)"
    )
    parser.add_argument(
        "--out", default="results", help="output directory (default results/)"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the serial-reference check (large sizes)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        size, shapes = 256, (PER_VERTEX, (64, 64))
    else:
        size, shapes = args.size, SWEEP_SHAPES
    print(f"tile sweep: {size}x{size}, shapes={[s or 'per-vertex' for s in shapes]}")
    results = run_sweep(size, shapes, args.out, verify=not args.no_verify)

    base = results["sw"]["per-vertex"]
    best_label = min(results["sw"], key=results["sw"].get)
    print(f"best SW: {best_label} ({base / results['sw'][best_label]:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
