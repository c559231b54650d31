"""Hand-vectorized NumPy baselines the overhead ledger divides by.

Unlike :mod:`repro.native.swlag_native` (deliberately cell-at-a-time, to
isolate *framework* overhead the way Figure 12 does), these sweeps are
what a performance-minded NumPy user hand-writes: one vectorized gather
per antidiagonal over the whole matrix. They bound what the generated
tile kernels (every tiled run's first choice, see docs/ANALYSIS.md)
can hope to achieve — the framework still pays tile scheduling, halo
assembly and window scatter on top — and ``benchmarks/ledger`` reports
every workload as an overhead ratio over them.

Each function mirrors its app's ``compute()`` bit-for-bit over the same
``(len(x)+1) x (len(y)+1)`` matrix (boundary row/column included), so
the ledger also asserts value equality against ``dag.to_array()``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sw_native",
    "lcs_native",
    "edit_distance_native",
    "mtp_native",
    "msa3_native",
]

_NEG = np.int64(-(10**15))


def _codes(s: str) -> np.ndarray:
    return np.fromiter(map(ord, s), dtype=np.int64, count=len(s))


def sw_native(
    x: str,
    y: str,
    match: int = 2,
    mismatch: int = -1,
    gap: int = -1,
) -> np.ndarray:
    """Smith-Waterman H matrix (linear gap), one sweep per antidiagonal."""
    m, n = len(x), len(y)
    c1, c2 = _codes(x), _codes(y)
    h = np.zeros((m + 1, n + 1), dtype=np.int64)
    for d in range(2, m + n + 1):
        i = np.arange(max(1, d - n), min(m, d - 1) + 1, dtype=np.int64)
        if i.size == 0:
            continue
        j = d - i
        s = np.where(c1[i - 1] == c2[j - 1], match, mismatch)
        best = np.maximum(
            h[i - 1, j - 1] + s,
            np.maximum(h[i - 1, j] + gap, h[i, j - 1] + gap),
        )
        h[i, j] = np.maximum(0, best)
    return h


def lcs_native(x: str, y: str) -> np.ndarray:
    """Longest-common-subsequence length matrix, antidiagonal sweeps."""
    m, n = len(x), len(y)
    c1, c2 = _codes(x), _codes(y)
    h = np.zeros((m + 1, n + 1), dtype=np.int64)
    for d in range(2, m + n + 1):
        i = np.arange(max(1, d - n), min(m, d - 1) + 1, dtype=np.int64)
        if i.size == 0:
            continue
        j = d - i
        h[i, j] = np.where(
            c1[i - 1] == c2[j - 1],
            h[i - 1, j - 1] + 1,
            np.maximum(h[i - 1, j], h[i, j - 1]),
        )
    return h


def edit_distance_native(x: str, y: str) -> np.ndarray:
    """Levenshtein distance matrix, antidiagonal sweeps."""
    m, n = len(x), len(y)
    c1, c2 = _codes(x), _codes(y)
    h = np.zeros((m + 1, n + 1), dtype=np.int64)
    h[0, :] = np.arange(n + 1)
    h[:, 0] = np.arange(m + 1)
    for d in range(2, m + n + 1):
        i = np.arange(max(1, d - n), min(m, d - 1) + 1, dtype=np.int64)
        if i.size == 0:
            continue
        j = d - i
        cost = np.where(c1[i - 1] == c2[j - 1], 0, 1)
        h[i, j] = np.minimum(
            h[i - 1, j - 1] + cost,
            np.minimum(h[i - 1, j], h[i, j - 1]) + 1,
        )
    return h


def mtp_native(w_down: np.ndarray, w_right: np.ndarray) -> np.ndarray:
    """Manhattan Tourist distance matrix, one prefix-max scan per row.

    The ROW_SCAN_PREFIX closed form: within row ``i``,
    ``v_j = max(b_j, v_{j-1} + a_j)`` where ``b`` is the
    already-computed down-step candidate and ``a_j`` the rightward
    street weight, solved as ``max.accumulate(b - S) + S`` with
    ``S`` the inclusive prefix sum of ``a``.
    """
    m, n = w_right.shape[0], w_down.shape[1]
    t = np.zeros((m, n), dtype=np.int64)
    t[0] = np.concatenate([[np.int64(0)], np.cumsum(w_right[0])])
    for i in range(1, m):
        b = t[i - 1] + w_down[i - 1]
        s = np.concatenate([[np.int64(0)], np.cumsum(w_right[i])])
        t[i] = np.maximum.accumulate(b - s) + s
    return t


def msa3_native(
    x: str,
    y: str,
    z: str,
    match: int = 1,
    mismatch: int = -1,
    gap: int = -2,
) -> np.ndarray:
    """Three-way alignment score tensor, one 2D wavefront per x-slab.

    Slab ``i`` depends only on slab ``i-1`` (fully computed) plus the
    in-slab reads ``(0,-1,0)``, ``(0,0,-1)``, ``(0,-1,-1)``, so each
    slab is an NW-style antidiagonal sweep over ``(j, k)`` with four
    extra vectorized candidates gathered from the previous slab.
    """
    m, n, p = len(x), len(y), len(z)
    cx, cy, cz = _codes(x), _codes(y), _codes(z)
    # pairwise substitution planes, 1-padded so plane[i, j] scores the
    # step consuming x[i-1]/y[j-1] and index 0 never wraps
    sxy = np.zeros((m + 1, n + 1), dtype=np.int64)
    sxy[1:, 1:] = np.where(cx[:, None] == cy[None, :], match, mismatch)
    sxz = np.zeros((m + 1, p + 1), dtype=np.int64)
    sxz[1:, 1:] = np.where(cx[:, None] == cz[None, :], match, mismatch)
    syz = np.zeros((n + 1, p + 1), dtype=np.int64)
    syz[1:, 1:] = np.where(cy[:, None] == cz[None, :], match, mismatch)
    g2 = 2 * gap
    h = np.full((m + 1, n + 1, p + 1), _NEG, dtype=np.int64)
    h[0, 0, 0] = 0

    def take(plane, jj, kk, valid):
        v = plane[np.clip(jj, 0, None), np.clip(kk, 0, None)]
        return np.where(valid, v, _NEG)

    for i in range(m + 1):
        cur = h[i]
        prev = h[i - 1] if i > 0 else None
        for d in range(n + p + 1):
            if i == 0 and d == 0:
                continue
            j = np.arange(max(0, d - p), min(n, d) + 1, dtype=np.int64)
            k = d - j
            jv, kv = j > 0, k > 0
            cand = np.full(j.shape, _NEG, dtype=np.int64)
            np.maximum(cand, take(cur, j - 1, k, jv) + g2, out=cand)
            np.maximum(cand, take(cur, j, k - 1, kv) + g2, out=cand)
            np.maximum(
                cand,
                take(cur, j - 1, k - 1, jv & kv) + syz[j, k] + g2,
                out=cand,
            )
            if prev is not None:
                np.maximum(cand, prev[j, k] + g2, out=cand)
                np.maximum(
                    cand, take(prev, j - 1, k, jv) + sxy[i, j] + g2, out=cand
                )
                np.maximum(
                    cand, take(prev, j, k - 1, kv) + sxz[i, k] + g2, out=cand
                )
                np.maximum(
                    cand,
                    take(prev, j - 1, k - 1, jv & kv)
                    + sxy[i, j]
                    + sxz[i, k]
                    + syz[j, k],
                    out=cand,
                )
            cur[j, k] = cand
    return h
