"""Command-line interface: ``python -m repro <command>``.

Solve the shipped DP applications or regenerate the paper's evaluation
figures without writing any code:

.. code-block:: bash

    python -m repro lcs ABCBDAB BDCABA --places 4
    python -m repro sw GATTACA GCATGCT --engine threaded
    python -m repro sw GATTACA GCATGCT --tile 1x1   # the per-vertex reference
    python -m repro lps character
    python -m repro knapsack --items 12 --capacity 40 --seed 3
    python -m repro matrix-chain --n 8
    python -m repro tree-knapsack --nodes 14 --capacity 20 --seed 1
    python -m repro tree-mis --nodes 14 --seed 1
    python -m repro msa3 GATTACA GCATGCT ACGTACG
    python -m repro patterns
    python -m repro fig10 --scale small
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import (
    DPX10Config,
    make_chain_dims,
    make_knapsack_instance,
    solve_knapsack,
    solve_lcs,
    solve_lps,
    solve_matrix_chain,
    solve_nw,
    solve_sw,
)
from repro.bench import (
    fig10_scalability,
    fig11_size_scaling,
    fig12_overhead,
    fig13_recovery,
    format_series,
)
from repro.bench.figures import FIG10_NODES
from repro.core.config import ENGINES
from repro.obs.cli import parse_tile
from repro.patterns import PATTERNS


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--places", type=int, default=4, help="number of places")
    p.add_argument("--engine", choices=ENGINES, default="inline")
    p.add_argument(
        "--scheduler", choices=["local", "random", "mincomm"], default="local"
    )
    p.add_argument(
        "--cache-size", type=int, default=64, help="per-vertex path only"
    )
    p.add_argument(
        "--tile", metavar="HxW", default=None,
        help="tile shape (default: planned by the runtime; 1x1 is the "
        "paper's per-vertex reference path)",
    )


def _config(args: argparse.Namespace) -> DPX10Config:
    return DPX10Config(
        nplaces=args.places,
        engine=args.engine,
        scheduler=args.scheduler,
        cache_size=args.cache_size,
        tile_shape=parse_tile(args.tile),
    )


def _print_report(report) -> None:
    print(f"  plan              : {report.plan}")
    print(f"  vertices computed : {report.completions}")
    print(f"  cross-place bytes : {report.network_bytes}")
    print(f"  cache hit rate    : {report.cache_hit_rate:.1%}")
    print(f"  wall time         : {report.wall_time:.3f}s")


def _cmd_lcs(args) -> int:
    app, report = solve_lcs(args.x, args.y, _config(args))
    print(f"LCS({args.x!r}, {args.y!r}) = {app.subsequence!r} (length {app.length})")
    _print_report(report)
    return 0


def _cmd_sw(args) -> int:
    app, report = solve_sw(args.x, args.y, _config(args))
    print(f"Smith-Waterman best local score: {app.best_score}")
    _print_report(report)
    return 0


def _cmd_nw(args) -> int:
    app, report = solve_nw(args.x, args.y, _config(args))
    print(f"Needleman-Wunsch global score: {app.score}")
    _print_report(report)
    return 0


def _cmd_lps(args) -> int:
    app, report = solve_lps(args.s, _config(args))
    print(f"Longest palindromic subsequence of {args.s!r}: length {app.length}")
    _print_report(report)
    return 0


def _cmd_knapsack(args) -> int:
    weights, values = make_knapsack_instance(
        args.items, args.capacity, seed=args.seed
    )
    app, report = solve_knapsack(weights, values, args.capacity, _config(args))
    print(f"0/1 Knapsack ({args.items} items, capacity {args.capacity}, "
          f"seed {args.seed}): best value {app.best_value}")
    print(f"  chosen items      : {app.chosen_items}")
    _print_report(report)
    return 0


def _cmd_matrix_chain(args) -> int:
    dims = make_chain_dims(args.n, seed=args.seed)
    app, report = solve_matrix_chain(dims, _config(args))
    print(f"Matrix chain of {args.n} matrices (dims {dims}):")
    print(f"  minimal multiplications: {app.min_multiplications}")
    _print_report(report)
    return 0


def _cmd_substring(args) -> int:
    from repro import solve_common_substring

    app, report = solve_common_substring(args.x, args.y, _config(args))
    print(f"Longest common substring: {app.substring!r} (length {app.length})")
    _print_report(report)
    return 0


def _cmd_cyk(args) -> int:
    from repro import CNFGrammar, solve_cyk

    grammar = CNFGrammar.balanced_parentheses()
    app, report = solve_cyk(grammar, args.s, _config(args))
    verdict = "derivable" if app.derivable else "NOT derivable"
    print(f"{args.s!r} is {verdict} by the balanced-parentheses grammar")
    _print_report(report)
    return 0


def _cmd_egg_drop(args) -> int:
    from repro import solve_egg_drop

    app, report = solve_egg_drop(args.eggs, args.floors, _config(args))
    print(f"Egg drop ({args.eggs} eggs, {args.floors} floors): "
          f"{app.trials} trials in the worst case")
    _print_report(report)
    return 0


def _cmd_tree_knapsack(args) -> int:
    from repro import make_tree_instance, solve_tree_knapsack

    parents, weights, values = make_tree_instance(args.nodes, seed=args.seed)
    app, report = solve_tree_knapsack(
        parents, weights, values, args.capacity, _config(args)
    )
    print(f"Tree knapsack ({args.nodes} nodes, capacity {args.capacity}, "
          f"seed {args.seed}): best value {app.best_value}")
    _print_report(report)
    return 0


def _cmd_tree_mis(args) -> int:
    from repro import make_tree_instance, solve_tree_mis

    parents, weights, _ = make_tree_instance(args.nodes, seed=args.seed)
    app, report = solve_tree_mis(parents, weights, _config(args))
    print(f"Tree max-weight independent set ({args.nodes} nodes, "
          f"seed {args.seed}): best weight {app.best_weight}")
    _print_report(report)
    return 0


def _cmd_msa3(args) -> int:
    from repro import solve_msa3

    app, report = solve_msa3(args.x, args.y, args.z, config=_config(args))
    print(f"3-way MSA sum-of-pairs score of {args.x!r}, {args.y!r}, "
          f"{args.z!r}: {app.best_score}")
    _print_report(report)
    return 0


def _cmd_patterns(args) -> int:
    print("Built-in DAG patterns (paper Figure 5):")
    for name in sorted(PATTERNS):
        cls = PATTERNS[name]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:14s} {doc}")
    if args.show:
        cls = PATTERNS[args.show]
        dag = cls(9, 9, 2) if args.show == "banded" else cls(9, 9)
        print(f"\n{args.show}: dependencies of the centre cell "
              f"(@ = cell, o = dependency)")
        print(dag.render_stencil())
    return 0


def _cmd_figure(args) -> int:
    if args.figure == "fig10":
        data = fig10_scalability(args.scale)
        print(format_series(
            f"Figure 10: execution time vs nodes ({args.scale} scale)",
            "nodes",
            FIG10_NODES,
            {a: [s[n] for n in FIG10_NODES] for a, s in data.items()},
        ))
        for a, s in data.items():
            print(f"  {a}: speedup 2->12 = {s[2] / s[12]:.2f}x")
    elif args.figure == "fig11":
        data = fig11_size_scaling(args.scale)
        sizes = sorted(next(iter(data.values())))
        print(format_series(
            f"Figure 11: execution time vs size on 10 nodes ({args.scale})",
            "V",
            sizes,
            {a: [s[v] for v in sizes] for a, s in data.items()},
        ))
    elif args.figure == "fig12":
        data = fig12_overhead(args.scale)
        sizes = sorted(next(iter(data.values())))
        print(format_series(
            f"Figure 12: DPX10/X10 overhead ratio ({args.scale})",
            "V",
            sizes,
            {f"{n} nodes": [row[v][2] for v in sizes] for n, row in data.items()},
            unit="x",
            precision=3,
        ))
    else:
        data = fig13_recovery(args.scale)
        sizes = sorted(next(iter(data.values())))
        print(format_series(
            f"Figure 13(a): recovery seconds ({args.scale})",
            "V",
            sizes,
            {f"{n} nodes": [row[v][0] for v in sizes] for n, row in data.items()},
        ))
        print()
        print(format_series(
            f"Figure 13(b): normalized one-fault time ({args.scale})",
            "V",
            sizes,
            {f"{n} nodes": [row[v][1] for v in sizes] for n, row in data.items()},
            unit="x",
        ))
    return 0


# Every subsystem that ships subcommands registers here, in one table:
# (module, registration function). Each function takes the subparsers
# object and calls ``sub.add_parser(...)`` for its commands. Keeping the
# table explicit (rather than scattering imports through build_parser)
# is what the docs-vs-CLI consistency test checks against.
SUBSYSTEM_PARSERS: "tuple[tuple[str, str], ...]" = (
    ("repro.analysis.cli", "add_lint_parser"),
    ("repro.analysis.cli", "add_analyze_parser"),
    ("repro.obs.cli", "add_obs_parser"),
    ("repro.chaos.cli", "add_chaos_parser"),
    ("repro.serve.cli", "add_serve_parser"),
)


def _register_subsystem_parsers(sub) -> None:
    import importlib

    for module_name, fn_name in SUBSYSTEM_PARSERS:
        getattr(importlib.import_module(module_name), fn_name)(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DPX10 reproduction: DP apps and paper-figure harnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lcs", help="longest common subsequence")
    p.add_argument("x")
    p.add_argument("y")
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_lcs)

    p = sub.add_parser("sw", help="Smith-Waterman local alignment")
    p.add_argument("x")
    p.add_argument("y")
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_sw)

    p = sub.add_parser("nw", help="Needleman-Wunsch global alignment")
    p.add_argument("x")
    p.add_argument("y")
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_nw)

    p = sub.add_parser("lps", help="longest palindromic subsequence")
    p.add_argument("s")
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_lps)

    p = sub.add_parser("knapsack", help="0/1 knapsack (random instance)")
    p.add_argument("--items", type=int, default=10)
    p.add_argument("--capacity", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_knapsack)

    p = sub.add_parser("matrix-chain", help="matrix-chain ordering (2D/1D)")
    p.add_argument("--n", type=int, default=8, help="number of matrices")
    p.add_argument("--seed", type=int, default=0)
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_matrix_chain)

    p = sub.add_parser("substring", help="longest common substring")
    p.add_argument("x")
    p.add_argument("y")
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_substring)

    p = sub.add_parser("cyk", help="CYK parse (balanced parentheses)")
    p.add_argument("s")
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_cyk)

    p = sub.add_parser("egg-drop", help="egg-drop puzzle (custom pattern)")
    p.add_argument("--eggs", type=int, default=2)
    p.add_argument("--floors", type=int, default=36)
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_egg_drop)

    p = sub.add_parser("tree-knapsack", help="tree knapsack (random tree)")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--capacity", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_tree_knapsack)

    p = sub.add_parser("tree-mis", help="tree max-weight independent set")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_tree_mis)

    p = sub.add_parser("msa3", help="3-way MSA (3-D Needleman-Wunsch)")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    _add_runtime_args(p)
    p.set_defaults(fn=_cmd_msa3)

    p = sub.add_parser("patterns", help="list the built-in DAG patterns")
    p.add_argument(
        "--show", metavar="NAME", default=None, help="render NAME's stencil"
    )
    p.set_defaults(fn=_cmd_patterns)

    _register_subsystem_parsers(sub)

    for fig in ("fig10", "fig11", "fig12", "fig13"):
        p = sub.add_parser(fig, help=f"regenerate the paper's {fig} series")
        p.add_argument("--scale", choices=["small", "paper"], default="small")
        p.set_defaults(fn=_cmd_figure, figure=fig)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
