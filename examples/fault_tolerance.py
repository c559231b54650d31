#!/usr/bin/env python3
"""Transparent fault tolerance: killing a place mid-run (paper §VI-D).

Runs Smith-Waterman with an injected node failure at 50% progress. The
runtime catches the ``DeadPlaceException``, rebuilds the distributed DAG
over the survivors, restores what the surviving places still hold, resets
indegrees, and resumes — the answer is identical to the fault-free run.
Also shows the "copy" restore manner and the Resilient-X10 limitation
that Place 0's death is unrecoverable.

Run:  python examples/fault_tolerance.py
"""

from repro import DPX10Config, FaultPlan, solve_sw
from repro.errors import PlaceZeroDeadError
from repro.util.rng import seeded_rng


def main() -> None:
    rng = seeded_rng(7, "ft-example")
    x = "".join(rng.choice(list("ACGT"), size=150))
    y = "".join(rng.choice(list("ACGT"), size=150))

    # the paper's per-vertex recovery protocol (and restore_manner) lives
    # on the reference path, tile_shape=(1, 1); planned tiles recover by
    # re-homing the dead place's tiles instead
    reference = dict(nplaces=4, tile_shape=(1, 1))

    print("== Fault-free baseline ==")
    app, report = solve_sw(x, y, DPX10Config(**reference))
    baseline = app.best_score
    print(f"  best score {baseline}, {report.completions} vertices computed")

    print("\n== Node failure at 50% progress (default: discard remote results) ==")
    plans = [FaultPlan(place_id=2, at_fraction=0.5)]
    app, report = solve_sw(x, y, DPX10Config(**reference), fault_plans=plans)
    stats = report.recovery_stats[0]
    print(f"  best score {app.best_score} (unchanged: {app.best_score == baseline})")
    print(f"  recoveries          : {report.recoveries}")
    print(f"  places left         : {report.final_alive_places}/4")
    print(f"  preserved in place  : {stats.preserved_in_place}")
    print(f"  discarded (recompute): {stats.discarded}")
    print(f"  extra recomputation : {report.recomputed} vertices")
    assert app.best_score == baseline

    print("\n== Same failure, restore_manner='copy' ==")
    cfg = DPX10Config(restore_manner="copy", **reference)
    app, report = solve_sw(x, y, cfg, fault_plans=plans)
    stats = report.recovery_stats[0]
    print(f"  best score {app.best_score}, copied {stats.copied} results "
          f"across the network, recomputed only {report.recomputed}")
    assert app.best_score == baseline

    print("\n== The Resilient X10 limitation: Place 0 must survive ==")
    try:
        solve_sw(x, y, DPX10Config(**reference),
                 fault_plans=[FaultPlan(place_id=0, at_fraction=0.5)])
    except PlaceZeroDeadError as exc:
        print(f"  caught as the paper describes: {exc}")


if __name__ == "__main__":
    main()
