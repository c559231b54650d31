"""``python -m repro chaos`` — the chaos battery from the command line.

.. code-block:: bash

    # sweep: 50 seeded schedules x 3 engines over the probe app
    python -m repro chaos run --seeds 50 --engines inline,threaded,mp

    # every built-in pattern, plus tiled variants, against the oracle
    python -m repro chaos run --patterns all --tiled

    # reproduce a stored failure exactly
    python -m repro chaos replay replays/chaos-000.json

    # minimize a stored failure to its load-bearing events
    python -m repro chaos shrink --replay replays/chaos-000.json

    # end-to-end proof the shrinker works: plant a recompute bug,
    # find a failing schedule, shrink it to <= 3 events
    python -m repro chaos shrink --demo

Failing trials are written as replay files (JSON: case spec + schedule +
failure summary) into ``--replay-dir`` so CI can upload them as
artifacts; exit status is the number of failing trials (capped at 99).
"""

from __future__ import annotations

import argparse
import os
from typing import List

from repro.chaos.harness import (
    APPS,
    PLANNED,
    CaseResult,
    CaseSpec,
    build_case,
    run_case,
    sweep,
)
from repro.chaos.schedule import ChaosSchedule
from repro.chaos.shrink import load_replay, shrink_case, write_replay
from repro.core.config import ENGINES

__all__ = ["add_chaos_parser"]

#: the pattern set "--patterns all" expands to (every registered pattern)
def _all_patterns() -> List[str]:
    from repro.patterns import PATTERNS

    return sorted(PATTERNS)


def _csv(text: str) -> List[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _engines(text: str) -> List[str]:
    """``--engines``, checked at parse time: a typo is a usage error
    before the sweep runs any case, not a crash some cases in."""
    engines = _csv(text)
    unknown = [e for e in engines if e not in ENGINES]
    if unknown or not engines:
        raise argparse.ArgumentTypeError(
            f"unknown engine(s) {','.join(unknown) or '(none given)'}; "
            f"choose from {','.join(ENGINES)}"
        )
    return engines


def _cmd_run(args) -> int:
    patterns = (
        _all_patterns() if args.patterns == "all" else _csv(args.patterns)
    )
    engines = args.engines
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    # per-vertex (the oracle path) and what a bare config plans
    tile_shapes: list = [None, PLANNED]
    if args.tiled:
        tile_shapes += [(2, 2), (3, 2)]
    os.makedirs(args.replay_dir, exist_ok=True)

    failures: List[CaseResult] = []
    counts = {"ok": 0, "skipped": 0, "failed": 0}

    def on_result(result: CaseResult) -> None:
        if result.skipped:
            counts["skipped"] += 1
            return
        if result.ok:
            counts["ok"] += 1
            return
        counts["failed"] += 1
        failures.append(result)
        print(f"FAIL #{len(failures)}")
        print(result.describe())
        path = os.path.join(
            args.replay_dir, f"chaos-{len(failures) - 1:03d}.json"
        )
        schedule = result.schedule
        if args.shrink:
            schedule, trials = shrink_case(result.spec, result.schedule)
            print(
                f"shrunk to {len(schedule.events())} event(s) "
                f"in {trials} trials:"
            )
            print("  " + "\n  ".join(schedule.describe().splitlines()))
        write_replay(path, result.spec, schedule, result)
        print(f"replay written: {path}\n")

    sweep(
        apps=_csv(args.apps),
        patterns=patterns,
        engines=engines,
        seeds=seeds,
        nplaces=args.places,
        height=args.size,
        width=args.size,
        tile_shapes=tile_shapes,
        intensity=args.intensity,
        shm=args.shm != "off",
        on_result=on_result,
        stop_on_failure=args.stop_on_failure,
    )
    total = sum(counts.values())
    print(
        f"chaos sweep: {total} trials — {counts['ok']} ok, "
        f"{counts['skipped']} skipped, {counts['failed']} failed"
    )
    return min(99, counts["failed"])


def _cmd_replay(args) -> int:
    spec, schedule = load_replay(args.replay)
    print(f"replaying: {spec.label()}")
    print(schedule.describe())
    result = run_case(spec, schedule)
    if result.ok:
        print("result: PASS (the stored failure did not reproduce)")
        return 0
    print("result: FAIL (reproduced)")
    print(result.describe())
    return 1


def _cmd_shrink(args) -> int:
    if args.demo:
        return _shrink_demo(args)
    if not args.replay:
        print("chaos shrink needs --replay FILE (or --demo)")
        return 2
    spec, schedule = load_replay(args.replay)
    result = run_case(spec, schedule)
    if result.ok:
        print("stored trial passes; nothing to shrink")
        return 0
    minimal, trials = shrink_case(spec, schedule)
    print(
        f"shrunk {len(schedule.events())} -> {len(minimal.events())} "
        f"event(s) in {trials} trials:"
    )
    print(minimal.describe())
    out = args.out or args.replay
    write_replay(out, spec, minimal, run_case(spec, minimal))
    print(f"minimal replay written: {out}")
    return 0


def _shrink_demo(args) -> int:
    """The acceptance run: plant a bug, find a failure, shrink it.

    The buggy-probe app corrupts any cell recomputed after a fault, so
    every schedule with at least one effective kill fails; the shrinker
    must reduce a busy generated schedule to a minimal one (<= 3 events)
    that still reproduces deterministically.
    """
    spec = CaseSpec(
        app="buggy-probe",
        pattern="diagonal",
        engine="inline",
        nplaces=args.places,
        height=args.size,
        width=args.size,
    )
    _, _, expected = build_case(spec)
    total_work = len(expected)
    failing = None
    for seed in range(args.seed_base, args.seed_base + max(args.seeds, 20)):
        schedule = ChaosSchedule.generate(seed, args.places, total_work)
        if schedule.kills and not run_case(spec, schedule).ok:
            failing = schedule
            break
    if failing is None:
        print("demo could not find a failing seed (unexpected)")
        return 1
    print(f"planted-bug failure at seed {failing.seed}:")
    print(failing.describe())
    minimal, trials = shrink_case(spec, failing)
    n = len(minimal.events())
    print(f"\nshrunk {len(failing.events())} -> {n} event(s) in {trials} trials:")
    print(minimal.describe())
    first = run_case(spec, minimal)
    second = run_case(spec, minimal)
    deterministic = (not first.ok) and first.mismatches == second.mismatches
    print(f"\nminimal schedule reproduces deterministically: {deterministic}")
    if args.out:
        write_replay(args.out, spec, minimal, first)
        print(f"replay written: {args.out}")
    return 0 if (n <= 3 and deterministic) else 1


def _cmd_soak(args) -> int:
    from repro.chaos.soak import SoakSpec, run_soak

    spec = SoakSpec(
        requests=args.requests,
        apps=tuple(_csv(args.apps)),
        size=args.size,
        nplaces=args.places,
        seed_base=args.seed_base,
        fault_fraction=args.fault_fraction,
        pool_capacity=args.pool_capacity,
    )
    report = run_soak(spec, over_http=args.http, verbose=True)
    print(report.describe())
    return 0 if report.ok else min(99, len(report.failures) or 1)


def add_chaos_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``chaos`` command group on the repro CLI."""
    p = sub.add_parser(
        "chaos",
        help="chaos battery: seeded fault sweeps, replay, shrinking",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    run = chaos_sub.add_parser(
        "run", help="sweep app x pattern x engine under seeded schedules"
    )
    run.add_argument(
        "--apps", default="probe", help=f"comma list from {', '.join(APPS)}"
    )
    run.add_argument(
        "--patterns",
        default="diagonal,grid,row_chain",
        help='comma list of pattern names, or "all"',
    )
    run.add_argument(
        "--engines",
        type=_engines,
        default="inline",
        help=f"comma list from {','.join(ENGINES)}",
    )
    run.add_argument("--seeds", type=int, default=10, help="schedules per case")
    run.add_argument("--seed-base", type=int, default=0)
    run.add_argument("--places", type=int, default=3)
    run.add_argument("--size", type=int, default=12, help="matrix side length")
    run.add_argument(
        "--tiled", action="store_true", help="also sweep 2x2 and 3x2 tiles"
    )
    run.add_argument("--intensity", type=float, default=1.0)
    run.add_argument(
        "--shm",
        choices=("on", "off", "auto"),
        default="auto",
        help="mp plane backing: off forces private planes (auto = on: "
        "shared memory wherever the run is eligible)",
    )
    run.add_argument("--replay-dir", default="chaos-replays")
    run.add_argument(
        "--shrink",
        action="store_true",
        help="minimize each failure before writing its replay",
    )
    run.add_argument("--stop-on-failure", action="store_true")
    run.set_defaults(fn=_cmd_run)

    soak = chaos_sub.add_parser(
        "soak",
        help="server-level soak: place kills mid-request, jobs must land",
    )
    soak.add_argument("--requests", type=int, default=12)
    soak.add_argument(
        "--apps",
        default=",".join(("sw", "mtp", "lcs")),
        help="comma list from the serving catalog",
    )
    soak.add_argument("--size", type=int, default=64)
    soak.add_argument("--places", type=int, default=3)
    soak.add_argument("--seed-base", type=int, default=0)
    soak.add_argument(
        "--fault-fraction",
        type=float,
        default=1.0,
        help="fraction of requests carrying a mid-run place kill",
    )
    soak.add_argument("--pool-capacity", type=int, default=None)
    soak.add_argument(
        "--http",
        action="store_true",
        help="submit over a live HTTP listener instead of in-process",
    )
    soak.set_defaults(fn=_cmd_soak)

    replay = chaos_sub.add_parser("replay", help="re-run a stored replay file")
    replay.add_argument("replay")
    replay.set_defaults(fn=_cmd_replay)

    shrink = chaos_sub.add_parser(
        "shrink", help="minimize a failing replay (or --demo the shrinker)"
    )
    shrink.add_argument("--replay", default=None)
    shrink.add_argument("--out", default=None)
    shrink.add_argument(
        "--demo",
        action="store_true",
        help="plant a recompute bug and prove the shrinker minimizes it",
    )
    shrink.add_argument("--places", type=int, default=3)
    shrink.add_argument("--size", type=int, default=12)
    shrink.add_argument("--seeds", type=int, default=20)
    shrink.add_argument("--seed-base", type=int, default=0)
    shrink.set_defaults(fn=_cmd_shrink)
