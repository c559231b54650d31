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
#: Raised by exactly the net growth of the planned-default change (core
#: 6007 -> 6086, analysis 6044 -> 6094), after paying with what it
#: strands: ``DPX10Config.tiling_enabled`` and the autokernel-requires-
#: tiling validation (config.py: the new docstring/comments net +2), the
#: three ``dag.coarsen(*cfg.tile_shape) if cfg.tiling_enabled`` copies
#: (runtime, mp_engine, chaos harness -> one ``plan_tiles`` call each) and
#: ``serve.api``'s autokernel gate. What remains in core: ``plan_tiles``
#: and its rule (tiling.py +40), ``RunReport.tile_shape`` / ``kernel`` /
#: ``plan`` with their summary, to_dict and constructor lines (runtime.py
#: +23), the mp master filling the same two fields (mp_engine.py +9) and
#: ``kernel_name`` (plane.py +5); in analysis: the source-level memo
#: ``_read_source`` / ``_SourceFacts`` that the default path now needs
#: (classify.py +50: the front-end runs on every planned solve and every
#: served job). It buys, on the ledger (ten alternated pairs, CHANGES.md
#: PR 20): ``sw_vertex_default_256`` overhead_x 121-149 -> 2.5-2.7,
#: solve_s 1.49-2.18 -> 0.028-0.044 s, setup_s 1.6-2.4 -> 0.29-0.42 s,
#: peak_rss_mb 55.3 -> 51.9; the three explicit-config workloads did not
#: move.
CEILINGS = {
    "src/repro/core": 6086,
    "src/repro/analysis": 6094,
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
