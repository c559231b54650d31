#!/usr/bin/env python
"""Line budget for the framework core and the analysis pipeline, and a
knob budget for ``DPX10Config``.

ROADMAP's "net-negative line count in ``src/repro/core`` and
``src/repro/analysis``" as a gate: prints ``wc -l`` per module of both
packages and exits non-zero when either total exceeds its ceiling, or
when ``DPX10Config`` has more fields than :data:`MAX_CONFIG_FIELDS`
(every field is a configuration tests and benchmarks must cover). The
ceilings are the totals at the last change that moved them; a change
that shrinks a package or drops a knob lowers its ceiling in the same
commit, and one that needs to grow it raises the number here, in
review, with a reason.

Run locally with ``python scripts/check_core_budget.py``.
"""

from __future__ import annotations

import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: package directory (relative to the repo root) -> maximum total lines.
#: Raised once, by exactly the net growth of the level-batch change
#: (core 5948 -> 6007, analysis 5999 -> 6044), after paying what could be
#: paid: one body each (``FlatSweepKernel.__call__`` is ``sweep`` on a
#: stack of one; ``plane.run_tile`` is gone, not kept beside
#: ``run_tiles``) and ``shm.ShmArena.segment_names`` dropped. What
#: remains: the grouping in ``run_tiles`` (plane.py +49), the span split
#: in ``_PlaceWorker.compute_tiles`` (mp_engine.py +13; tiling.py +1,
#: shm.py -4), and in flatsweep.py (+45) the ``prepare``/``sweep`` split
#: with the batch axis and the LRU plan cache. It buys, on the ledger
#: (alternated pairs, CHANGES.md PR 19): ``sw_tiled_mp_2048`` overhead_x
#: 2.8-3.3 -> 1.6-1.7, solve_s 1.35-1.43 -> 0.66-0.75 s, nothing else
#: moved.
CEILINGS = {
    "src/repro/core": 6007,
    "src/repro/analysis": 6044,
}

MAX_CONFIG_FIELDS = 27


def line_counts(package: str) -> dict:
    """``{module file name: line count}`` for the package's own modules."""
    folder = os.path.join(ROOT, package)
    counts = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as fh:
                counts[name] = sum(1 for _ in fh)
    return counts


def main() -> int:
    failed = False
    for package, ceiling in CEILINGS.items():
        counts = line_counts(package)
        for name, n in counts.items():
            print(f"{n:7d} {package}/{name}")
        total = sum(counts.values())
        verdict = "ok" if total <= ceiling else "OVER BUDGET"
        print(f"{total:7d} {package} total (ceiling {ceiling}): {verdict}\n")
        failed = failed or total > ceiling
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.config import DPX10Config

    nfields = len(dataclasses.fields(DPX10Config))
    verdict = "ok" if nfields <= MAX_CONFIG_FIELDS else "OVER BUDGET"
    print(f"{nfields:7d} DPX10Config fields (ceiling {MAX_CONFIG_FIELDS}): {verdict}")
    failed = failed or nfields > MAX_CONFIG_FIELDS
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
