#!/usr/bin/env python3
"""The two fault-tolerance mechanisms, head to head (paper §VI-D).

Runs the same faulting workload under the paper's recovery protocol and
under the Resilient-X10 periodic-snapshot baseline, at several checkpoint
densities, and prints the two ledgers that decide the argument:

* what each mechanism costs on a *fault-free* run (snapshots tax every
  execution; recovery costs nothing until a fault), and
* what one fault costs end to end (recompute volume vs checkpoint tax).

Run:  python examples/snapshot_vs_recovery.py
"""

from repro import DPX10Config, FaultPlan, solve_sw
from repro.util.rng import seeded_rng


def main() -> None:
    rng = seeded_rng(31, "ft-compare")
    x = "".join(rng.choice(list("ACGT"), size=130))
    y = "".join(rng.choice(list("ACGT"), size=130))
    plans = [FaultPlan(place_id=2, at_fraction=0.6)]

    # both mechanisms are compared on the paper's per-vertex path
    reference = dict(nplaces=4, tile_shape=(1, 1))

    print("== ledger 1: the fault-free run ==")
    _, clean = solve_sw(x, y, DPX10Config(**reference))
    print(f"  recovery mode : 0 checkpoint cells (nothing until a fault)")
    for interval in (500, 2000):
        cfg = DPX10Config(
            ft_mode="snapshot", snapshot_interval=interval, **reference
        )
        _, rep = solve_sw(x, y, cfg)
        print(f"  snapshot every {interval:4d} completions: "
              f"{rep.snapshots_taken} checkpoints, "
              f"{rep.snapshot_cells_copied:,} cells copied to stable storage")

    print("\n== ledger 2: one fault at 60% progress ==")
    app, rep = solve_sw(x, y, DPX10Config(**reference), fault_plans=plans)
    baseline_score = app.best_score
    stats = rep.recovery_stats[0]
    print(f"  recovery mode : {stats.preserved_in_place:,} kept in place, "
          f"{stats.discarded:,} discarded, {rep.recomputed:,} recomputed, "
          f"0 cells ever checkpointed")
    for interval in (500, 2000):
        cfg = DPX10Config(
            ft_mode="snapshot", snapshot_interval=interval, **reference
        )
        app, rep = solve_sw(x, y, cfg, fault_plans=plans)
        assert app.best_score == baseline_score
        stats = rep.recovery_stats[0]
        print(f"  snapshot every {interval:4d}: rolled back to "
              f"{stats.restored_from_snapshot:,} cells, "
              f"{rep.recomputed:,} recomputed, "
              f"{rep.snapshot_cells_copied:,} cells checkpointed along the way")

    print("\nthe paper's verdict: at DP volumes the checkpoint column is the"
          "\nproblem — it grows with intermediate state and is paid on every"
          "\nrun, faulty or not, which is why DPX10 replaces snapshots with"
          "\nits recovery protocol.")


if __name__ == "__main__":
    main()
