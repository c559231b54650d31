"""Hand-written baselines bypassing the DPX10 framework.

Figure 12 compares DPX10's SWLAG against "the SWLAG algorithm implemented
with native X10": same computation, no DAG objects, no pattern dispatch,
no per-vertex scheduling, no cache — the cost of the framework's
convenience. :mod:`repro.native.swlag_native` is that baseline for this
reproduction: a direct array sweep used both for measured small-scale
overhead ratios and (through ``CostModel.native()``) for the simulated
paper-scale ratio.

:mod:`repro.native.dp_native` adds fully-vectorized NumPy antidiagonal
sweeps for SW/LCS/edit distance — the hand-written bound the generated
tile kernels (every tiled run's first choice) are perf-gated against.
"""

from repro.native.dp_native import (
    edit_distance_native,
    lcs_native,
    msa3_native,
    mtp_native,
    sw_native,
)
from repro.native.swlag_native import swlag_native, swlag_native_score

__all__ = [
    "edit_distance_native",
    "lcs_native",
    "msa3_native",
    "mtp_native",
    "sw_native",
    "swlag_native",
    "swlag_native_score",
]
