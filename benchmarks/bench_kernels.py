"""Per-kernel microbenchmark: interpreted vs generated vs hand, per tile.

Where the overhead ledger measures whole runs, this isolates the tile
*compute* itself across tile shapes: every vectorization class the analyzer emits (flat
sweep, elementwise, row scan, tensor hyperplane, tree level gather) is
driven through the same inline tiled data plane in three modes —

* ``interpreted`` — the per-vertex ``compute()`` cell loop (hand-written
  ``compute_tile`` methods are stripped so SW/LPS measure the true
  interpreted floor),
* ``generated``   — ``autokernel=True``: the analyzer's kernel,
* ``hand``        — the app's own ``compute_tile`` (SW and LPS only),

for each app x tile shape, on one thread so kernel arithmetic (not
scheduling) dominates the cell. The committed artifact
(``BENCH_kernels.json``) is the source for docs/TILING.md's tile-size
guidance: the ``speedup_gen_vs_interp`` column shows where each class
amortizes its per-tile plan/gather overhead, and ``gen_vs_hand`` tracks
how close the flat-sweep emission runs to hand-tuned code.

Entry points:

* ``python benchmarks/bench_kernels.py`` — full battery, refreshes
  ``BENCH_kernels.json`` at the repo root.
* ``python benchmarks/bench_kernels.py --quick`` — CI-sized instances,
  a single 64x64 tile shape; exits 1 when the ``level_batch`` row (eight
  tiles of one level, batched vs one by one) shows no gain from batching.
"""

import argparse
import json
import os
import sys

import numpy as np

from repro.core.api import DPX10App
from repro.core.config import DPX10Config
from repro.core.runtime import DPX10Runtime
from repro.util.rng import seeded_rng
from repro.util.timer import Timer

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")

TILE_SHAPES = [(32, 32), (64, 64), (128, 128)]
QUICK_TILE_SHAPES = [(64, 64)]


def _dna(rng, n: int) -> str:
    return "".join(rng.choice(list("ACGT"), size=n))


def _battery(quick: bool):
    """App name -> zero-arg factory returning a fresh ``(app, dag)``.

    One representative per vectorization class (plus every app that
    ships a hand kernel), at sizes where the interpreted cell loop takes
    long enough to time but the full battery stays CI-friendly.
    """
    from repro.apps.edit_distance import EditDistanceApp
    from repro.apps.knapsack import KnapsackApp, KnapsackDag
    from repro.apps.lcs import LCSApp
    from repro.apps.lps import LPSApp
    from repro.apps.msa import MSA3App, make_msa3_instance
    from repro.apps.mtp import MTPApp, make_mtp_weights
    from repro.apps.smith_waterman import SWApp
    from repro.apps.tree_knapsack import make_tree_instance
    from repro.apps.tree_mis import TreeMISApp
    from repro.apps.unbounded_knapsack import (
        UnboundedKnapsackApp,
        UnboundedKnapsackDag,
    )
    from repro.core.domain import TreeDomain
    from repro.patterns.diagonal import DiagonalDag
    from repro.patterns.grid import GridDag
    from repro.patterns.interval import IntervalDag
    from repro.patterns.tensor import TensorWavefrontDag
    from repro.patterns.tree import TreeDag

    n = 192 if quick else 448
    rng = seeded_rng(3, "bench-kernels")
    s1, s2 = _dna(rng, n), _dna(rng, n)
    s = _dna(rng, n)
    items = n // 2
    cap = n
    kw = [int(w) for w in rng.integers(1, 12, size=items)]
    kv = [int(v) for v in rng.integers(1, 100, size=items)]
    w_down, w_right = make_mtp_weights(n, n, seed=3)
    q = 23 if quick else 39
    mx, my, mz = make_msa3_instance(q, seed=3)
    parents, weights, _values = make_tree_instance(
        2000 if quick else 8000, seed=3
    )
    dom = TreeDomain(parents)

    return {
        "sw": lambda: (SWApp(s1, s2), DiagonalDag(n + 1, n + 1)),
        "lcs": lambda: (LCSApp(s1, s2), DiagonalDag(n + 1, n + 1)),
        "edit_distance": lambda: (
            EditDistanceApp(s1, s2),
            DiagonalDag(n + 1, n + 1),
        ),
        "lps": lambda: (LPSApp(s), IntervalDag(len(s), len(s))),
        "knapsack": lambda: (
            KnapsackApp(kw, kv, cap),
            KnapsackDag(kw, cap),
        ),
        "unbounded_knapsack": lambda: (
            UnboundedKnapsackApp(kw, kv, cap),
            UnboundedKnapsackDag(kw, cap),
        ),
        "mtp": lambda: (
            MTPApp(w_down, w_right),
            GridDag(w_right.shape[0], w_down.shape[1]),
        ),
        "msa3": lambda: (
            (lambda app: (app, TensorWavefrontDag(app.domain.shape)))(
                MSA3App(mx, my, mz)
            )
        ),
        "tree_mis": lambda: (TreeMISApp(dom, weights), TreeDag(dom)),
    }


#: apps whose dag constrains tile geometry: the tree dag only coarsens
#: acyclically along whole level rows, so square shapes are mapped to
#: equal-area level strips
SHAPE_OVERRIDES = {
    "tree_mis": lambda s: (1, s[0] * s[1]),
}


def _strip_hand_kernel(app):
    """A twin of ``app`` whose class has no ``compute_tile`` override."""
    cls = type(app)
    if cls.compute_tile is DPX10App.compute_tile:
        return app
    shim = type(
        "Interpreted" + cls.__name__,
        (cls,),
        {"compute_tile": DPX10App.compute_tile},
    )
    twin = shim.__new__(shim)
    twin.__dict__.update(app.__dict__)
    return twin


def _checksum(app, dag):
    if app.value_dtype is not None:
        return int(dag.to_array(fill=-1, dtype=np.int64).sum())
    return None  # object store: equality is covered by the test suite


def run_mode(factory, shape, mode):
    """One (app, tile shape, mode) cell: wall seconds + value checksum."""
    app, dag = factory()
    autokernel = mode == "generated"
    if mode == "interpreted":
        app = _strip_hand_kernel(app)
    cfg = DPX10Config(
        engine="inline", tile_shape=shape, autokernel=autokernel
    )
    with Timer() as t:
        DPX10Runtime(app, dag, cfg).run()
    return round(t.elapsed, 4), _checksum(app, dag)


def run_battery(quick: bool) -> dict:
    shapes = QUICK_TILE_SHAPES if quick else TILE_SHAPES
    battery = _battery(quick)
    doc = {
        "quick": quick,
        "tile_shapes": [list(s) for s in shapes],
        "apps": {},
    }
    for name, factory in sorted(battery.items()):
        sample_app, _ = factory()
        has_hand = (
            type(sample_app).compute_tile is not DPX10App.compute_tile
        )
        modes = ["interpreted", "generated"] + (["hand"] if has_hand else [])
        per_app = {}
        for shape in shapes:
            shape = SHAPE_OVERRIDES.get(name, lambda s: s)(shape)
            cell = {}
            checks = {}
            for mode in modes:
                seconds, check = run_mode(factory, shape, mode)
                cell[mode] = seconds
                checks[mode] = check
            want = checks["interpreted"]
            assert all(c == want for c in checks.values()), (name, checks)
            cell["speedup_gen_vs_interp"] = (
                round(cell["interpreted"] / cell["generated"], 2)
                if cell["generated"]
                else None
            )
            if has_hand and cell["generated"]:
                cell["speedup_gen_vs_hand"] = round(
                    cell["hand"] / cell["generated"], 2
                )
            per_app[f"{shape[0]}x{shape[1]}"] = cell
            hand_txt = f"  hand {cell['hand']:7.3f}s" if has_hand else ""
            print(
                f"  {name:>18} {shape[0]:>3}x{shape[1]:<3} "
                f"interp {cell['interpreted']:7.3f}s  "
                f"gen {cell['generated']:7.3f}s"
                f"{hand_txt}  ({cell['speedup_gen_vs_interp']}x)",
                flush=True,
            )
        doc["apps"][name] = per_app
    return doc


def run_level_batch(quick: bool) -> dict:
    """One tile anti-diagonal, batched vs tile by tile.

    Eight interior 64x64 SW tiles of one level go through
    ``plane.run_tiles`` once as a batch (one flat sweep with a batch
    axis) and once as eight single-tile calls — the two ways an mp place
    could serve the ``units`` envelope it receives. Best of 5 (quick) or
    25 repetitions.
    """
    from repro.analysis.codegen import build_autokernel
    from repro.apps.smith_waterman import SWApp
    from repro.core import plane as plane_mod
    from repro.patterns.diagonal import DiagonalDag

    ntiles, edge = 8, 64
    n = (ntiles + 1) * edge
    rng = seeded_rng(3, "bench-kernels-level")
    app = SWApp(_dna(rng, n), _dna(rng, n))
    dag = DiagonalDag(n + 1, n + 1)
    tiled = dag.coarsen(edge, edge)
    kernel = plane_mod.tile_kernel(app, tiled, build_autokernel(app, dag)[0])
    level = [(k, ntiles + 1 - k) for k in range(1, ntiles + 1)]
    best = {"solo": float("inf"), "batched": float("inf")}
    planes = {}
    for _ in range(5 if quick else 25):
        for mode, calls in (("solo", [[t] for t in level]), ("batched", [level])):
            plane = plane_mod.TilePlane.allocate(
                (n + 1, n + 1), app.value_dtype, (edge, edge)
            )
            plane.owners[...] = 0
            with Timer() as t:
                for tiles in calls:
                    plane_mod.run_tiles(plane, tiled, app, kernel, tiles, 0)
            best[mode] = min(best[mode], t.elapsed)
            planes[mode] = plane.values
    assert np.array_equal(planes["solo"], planes["batched"])
    row = {
        "tiles": ntiles,
        "tile_shape": [edge, edge],
        "solo_s": round(best["solo"], 5),
        "batched_s": round(best["batched"], 5),
        "speedup_batched_vs_solo": round(best["solo"] / best["batched"], 2),
    }
    print(
        f"  level batch: {ntiles} interior sw {edge}x{edge} tiles  "
        f"solo {row['solo_s'] * 1e3:.2f}ms  batched {row['batched_s'] * 1e3:.2f}ms"
        f"  ({row['speedup_batched_vs_solo']}x)",
        flush=True,
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized instances and a single 64x64 tile shape",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help="snapshot path (default: repo-root BENCH_kernels.json)",
    )
    args = parser.parse_args(argv)
    print("kernel microbench: interpreted vs generated vs hand (inline engine)")
    doc = run_battery(args.quick)
    doc["level_batch"] = run_level_batch(args.quick)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(args.out)}")
    if args.quick and doc["level_batch"]["speedup_batched_vs_solo"] <= 1.0:
        print("FAIL: a batched level is not faster than its tiles one by one")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
